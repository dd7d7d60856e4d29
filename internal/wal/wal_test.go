package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dta/internal/vfs"
	"dta/internal/wire"
)

// stagedKW builds a staged Key-Write report for tests.
func stagedKW(key uint64, data []byte, n int) *wire.StagedReport {
	r := &wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: uint8(n), DataLen: uint16(len(data)), Key: wire.KeyFromUint64(key)},
		Data:     data,
	}
	var s wire.StagedReport
	s.Stage(r)
	return &s
}

func stagedAppend(list uint32, data []byte) *wire.StagedReport {
	r := &wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: list, DataLen: uint16(len(data))},
		Data:   data,
	}
	var s wire.StagedReport
	s.Stage(r)
	return &s
}

func TestWriterReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	const records = 500
	for i := 0; i < records; i++ {
		lsn, err := w.Append(stagedKW(uint64(i), []byte{byte(i), 2, 3, 4}, 2), uint64(i)*10)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("record %d got LSN %d", i, lsn)
		}
	}
	if got := w.LastLSN(); got != records {
		t.Fatalf("LastLSN = %d, want %d", got, records)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != records {
		t.Fatalf("DurableLSN = %d, want %d", got, records)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var n int
	last, err := Replay(dir, 1, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
		i := int(lsn - 1)
		if nowNs != uint64(i)*10 {
			t.Fatalf("record %d nowNs = %d", i, nowNs)
		}
		if rec.Primitive() != wire.PrimKeyWrite {
			t.Fatalf("record %d primitive = %v", i, rec.Primitive())
		}
		key, red := rec.KeyWriteArgs()
		if *key != wire.KeyFromUint64(uint64(i)) || red != 2 {
			t.Fatalf("record %d key/red mismatch", i)
		}
		if want := []byte{byte(i), 2, 3, 4}; !bytes.Equal(rec.Payload(), want) {
			t.Fatalf("record %d payload %v, want %v", i, rec.Payload(), want)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != records || last != records {
		t.Fatalf("replayed %d records up to %d, want %d", n, last, records)
	}

	// Replay from the middle delivers exactly the suffix.
	n = 0
	first := uint64(0)
	if _, err := Replay(dir, 321, func(lsn, _ uint64, _ *wire.StagedReport) error {
		if first == 0 {
			first = lsn
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first != 321 || n != records-320 {
		t.Fatalf("suffix replay: first=%d n=%d", first, n)
	}
}

func TestWriterRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	w, err := Create(dir, Policy{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := w.Append(stagedAppend(7, []byte{byte(i), 1}), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	for _, s := range segs {
		if s.TornBytes != 0 || s.Err != nil {
			t.Fatalf("segment %s damaged: torn=%d err=%v", s.Path, s.TornBytes, s.Err)
		}
	}

	// Reopen continues the LSN sequence.
	w, err = Create(dir, Policy{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(stagedAppend(7, []byte{99, 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 41 {
		t.Fatalf("reopened writer assigned LSN %d, want 41", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if _, err := Replay(dir, 1, func(l, _ uint64, _ *wire.StagedReport) error {
		got = append(got, l)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 41 || got[40] != 41 {
		t.Fatalf("replay after reopen: %d records, last %v", len(got), got[len(got)-1:])
	}
}

func TestCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Policy{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := w.Append(stagedKW(uint64(i), []byte{1, 2, 3, 4}, 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 4 {
		t.Fatalf("want several segments, got %d", len(before))
	}

	// Checkpoint at LSN 30: every segment wholly below is reclaimed.
	removed, err := TruncateBelow(vfs.OS{}, dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected segment reclamation")
	}
	first, last, err := Bounds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first > 31 {
		t.Fatalf("record 31 reclaimed: first retained LSN %d", first)
	}
	if last != 60 {
		t.Fatalf("tail lost: last LSN %d", last)
	}
	// The suffix above the checkpoint replays intact.
	n := 0
	if _, err := Replay(dir, 31, func(uint64, uint64, *wire.StagedReport) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("replayed %d records above checkpoint, want 30", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateAfterFullTruncationContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(stagedKW(uint64(i), []byte{1, 2, 3, 4}, 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A checkpoint covering the whole log lets every segment go.
	snapDir(t, dir, 10)
	if _, err := TruncateBelow(vfs.OS{}, dir, 10); err != nil {
		t.Fatal(err)
	}
	// Remove the one remaining (tail) segment manually to simulate full
	// reclamation, then reopen: the LSN sequence must continue from the
	// checkpoint, not restart at 1.
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		os.Remove(s.Path)
	}
	w, err = Create(dir, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(stagedKW(1, []byte{1, 2, 3, 4}, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-checkpoint reopen assigned LSN %d, want 11", lsn)
	}
	w.Close()
}

// snapDir writes a minimal checkpoint at the given LSN.
func snapDir(t *testing.T, dir string, lsn uint64) {
	t.Helper()
	snap := testSnapshot()
	snap.WALLSN = lsn
	if _, err := WriteCheckpoint(vfs.OS{}, dir, snap); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		mode SyncMode
		ivl  time.Duration
		err  bool
	}{
		{"none", SyncNone, 0, false},
		{"batch", SyncBatch, 0, false},
		{"every-batch", SyncBatch, 0, false},
		{"interval", SyncInterval, 0, false},
		{"interval=50ms", SyncInterval, 50 * time.Millisecond, false},
		{"interval=bogus", 0, 0, true},
		{"wat", 0, 0, true},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParsePolicy(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c.in, err)
			continue
		}
		if p.Mode != c.mode {
			t.Errorf("ParsePolicy(%q).Mode = %v, want %v", c.in, p.Mode, c.mode)
		}
		if c.ivl != 0 && p.Interval != c.ivl {
			t.Errorf("ParsePolicy(%q).Interval = %v, want %v", c.in, p.Interval, c.ivl)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if m, err := LoadMeta(dir); err != nil || m != nil {
		t.Fatalf("empty dir meta: %v, %v", m, err)
	}
	in := testMeta()
	if err := SaveMeta(vfs.OS{}, dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out.Translator.KeyWrite == nil || *out.Translator.KeyWrite != *in.Translator.KeyWrite {
		t.Fatalf("meta key-write mismatch: %+v", out.Translator.KeyWrite)
	}
	if out.Translator.AppendBatch != in.Translator.AppendBatch {
		t.Fatalf("meta append batch = %d", out.Translator.AppendBatch)
	}
}

func TestSegmentInfoRanges(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Policy{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := w.Append(stagedKW(uint64(i), []byte{1, 2, 3, 4}, 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	total := 0
	for _, s := range segs {
		if s.First != next {
			t.Fatalf("segment %s first %d, want %d", filepath.Base(s.Path), s.First, next)
		}
		if s.Last < s.First || s.Records != int(s.Last-s.First+1) {
			t.Fatalf("segment %s range [%d,%d] records %d", filepath.Base(s.Path), s.First, s.Last, s.Records)
		}
		next = s.Last + 1
		total += s.Records
	}
	if total != 30 {
		t.Fatalf("segments cover %d records, want 30", total)
	}
}
