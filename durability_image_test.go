package dta

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dta/internal/obs/journal"
	"dta/internal/snapshot"
	"dta/internal/wal"
)

// copyDir copies a WAL directory's files, so each damage case starts
// from the same bytes.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// flipByte damages one byte of a file in place.
func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[at] ^= 0x04
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireSameAnswers asserts got answers every lookup over keys [0, n)
// exactly as want does.
func requireSameAnswers(t *testing.T, got, want *System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := KeyFromUint64(uint64(i))
		gv, gok, gerr := got.LookupValue(k, 2)
		wv, wok, werr := want.LookupValue(k, 2)
		if gok != wok || !bytes.Equal(gv, wv) || (gerr == nil) != (werr == nil) {
			t.Fatalf("LookupValue(%d) = %x %v %v, live system says %x %v %v", i, gv, gok, gerr, wv, wok, werr)
		}
		gc, gerr := got.LookupCount(k, 2)
		wc, werr := want.LookupCount(k, 2)
		if gc != wc || (gerr == nil) != (werr == nil) {
			t.Fatalf("LookupCount(%d) = %d %v, live system says %d %v", i, gc, gerr, wc, werr)
		}
		gp, gok, gerr := got.LookupPath(k, 1)
		wp, wok, werr := want.LookupPath(k, 1)
		if gok != wok || len(gp) != len(wp) || (gerr == nil) != (werr == nil) {
			t.Fatalf("LookupPath(%d) = %v %v %v, live system says %v %v %v", i, gp, gok, gerr, wp, wok, werr)
		}
		for h := range gp {
			if gp[h] != wp[h] {
				t.Fatalf("LookupPath(%d) = %v, live system says %v", i, gp, wp)
			}
		}
	}
}

// TestCheckpointImageFallback: whichever part of the newest image goes
// bad — one byte in the header, in any section, in the trailer — a
// restart still gives exactly the live answers, because the image before
// it is kept and the log is only ever reclaimed below THAT one; the
// recovery timeline says so. (With one unchecksummed image and the log
// gone below it, the same flips were a decode error or silently wrong
// stores.)
func TestCheckpointImageFallback(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{SegmentBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	const n = 260
	ingestMixed(t, rep, 0, 100)
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One generation, damaged: the log has not been touched yet, so the
	// restart replays all of it.
	one := copyDir(t, dir)
	flipByte(t, filepath.Join(one, "checkpoint.snap"), 100)
	if rec, err := RecoverSystem(one); err != nil {
		t.Fatalf("single damaged image: %v", err)
	} else {
		requireSameStores(t, rec, sys)
	}

	ingestMixed(t, rep, 100, 200)
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, rep, 200, n)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if first, _, err := wal.Bounds(dir); err != nil || first <= 1 || first > 801 {
		t.Fatalf("log retained from LSN %d (%v); want reclaimed below the older image's 800 and no further", first, err)
	}

	// Where the newest image's parts lie.
	img, err := os.ReadFile(filepath.Join(dir, "checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := snapshot.Verify(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]int{"header": 40, "trailer": len(img) - 6}
	off := 16 + int(binary.BigEndian.Uint32(img[12:])) + 4
	for _, sec := range ck.Sections {
		if sec.Bytes == 0 {
			continue
		}
		damage[sec.Name] = off + int(sec.Bytes)/2
		off += int(sec.Bytes) + 4 // every store here is under one block
	}
	if len(damage) != 2+5 {
		t.Fatalf("image sections: %v", damage)
	}
	for part, at := range damage {
		bad := copyDir(t, dir)
		flipByte(t, filepath.Join(bad, "checkpoint.snap"), at)
		rec, err := RecoverSystem(bad)
		if err != nil {
			t.Errorf("flip in %s: %v", part, err)
			continue
		}
		requireSameStores(t, rec, sys)
		requireSameAnswers(t, rec, sys, n)
		// The timeline names the fallback, under the recovery's cause.
		events, err := journal.ReadDump(filepath.Join(bad, journal.DumpFileName))
		if err != nil {
			t.Fatal(err)
		}
		var start, fallback *journal.Record
		for i := range events {
			switch events[i].Type {
			case journal.EvRecoveryStart.String():
				start = &events[i]
			case journal.EvImageFallback.String():
				fallback = &events[i]
			}
		}
		if start == nil || fallback == nil || fallback.Cause != start.Cause || fallback.Args[0] != 800 {
			t.Errorf("flip in %s: fallback event %+v under recovery %+v; want one at LSN 800 in its chain", part, fallback, start)
		}
	}

	// An undamaged directory recovers from the newest image, silently.
	clean := copyDir(t, dir)
	rec, err := RecoverSystem(clean)
	if err != nil {
		t.Fatal(err)
	}
	requireSameStores(t, rec, sys)
	events, _ := journal.ReadDump(filepath.Join(clean, journal.DumpFileName))
	for _, ev := range events {
		if ev.Type == journal.EvImageFallback.String() {
			t.Errorf("clean recovery journaled %+v", ev)
		}
	}

	// Both generations damaged: the log below the older one is gone, and
	// the restart says so instead of serving a partial replay.
	both := copyDir(t, dir)
	flipByte(t, filepath.Join(both, "checkpoint.snap"), damage["keywrite"])
	flipByte(t, filepath.Join(both, "checkpoint.prev"), damage["keywrite"])
	if _, err := RecoverSystem(both); err == nil {
		t.Error("recovered from two damaged images and a truncated log")
	}
}

// TestRecoverEndsAtEpochBoundary: a restart leaves nothing parked in the
// translator. Key-Increment deltas the aggregation cache was holding when
// the process died are in the log; replay puts them back in the cache,
// and Recover's closing flush puts them in the store — LookupCount on the
// recovered system reads them without anyone calling Flush.
func TestRecoverEndsAtEpochBoundary(t *testing.T) {
	dir := t.TempDir()
	opts := fullOptions()
	opts.KeyIncrement.AggregationRows = 1 << 8
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	const keys = 50
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			if err := rep.Increment(KeyFromUint64(uint64(i)), uint64(i+1), 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.SyncWAL(); err != nil { // durable, never flushed: the crash
		t.Fatal(err)
	}
	rec, err := RecoverSystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil { // what the live system would have answered
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		k := KeyFromUint64(uint64(i))
		want, err := sys.LookupCount(k, 2)
		if err != nil || want < uint64(3*(i+1)) {
			t.Fatalf("live LookupCount(%d) = %d, %v", i, want, err)
		}
		if got, err := rec.LookupCount(k, 2); err != nil || got != want {
			t.Fatalf("recovered LookupCount(%d) = %d, %v; the live system answers %d", i, got, err, want)
		}
	}
	requireSameStores(t, rec, sys)
}

// TestCheckpointHoldsNoSecondImage pins the memory property of the
// durability path by counting allocated bytes, not by sampling RSS: a
// checkpoint streams out of store memory (no copy of the stores, no
// encoder buffer), and a restart allocates the stores and one image.
func TestCheckpointHoldsNoSecondImage(t *testing.T) {
	opts := fullOptions()
	opts.KeyWrite.Slots = 1 << 21     // 16 MiB
	opts.KeyIncrement.Slots = 1 << 20 // 8 MiB
	opts.Postcarding.Chunks = 1 << 18 // 8 MiB
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Host()
	stores := uint64(len(h.KeyWriteStore().Buffer()) + len(h.KeyIncrementStore().Buffer()) +
		len(h.PostcardingStore().Buffer()) + len(h.AppendStore().Buffer()))
	if stores < 32<<20 {
		t.Fatalf("stores hold %d bytes, want at least 32 MiB", stores)
	}
	dir := t.TempDir()
	if err := sys.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Twice: the second checkpoint also walks the first image to verify
	// it before keeping it as the older generation.
	for round := 0; round < 2; round++ {
		ingestMixed(t, rep, 100*round, 100*round+100)
		got := allocated(func() { _, err = sys.Checkpoint() })
		if err != nil {
			t.Fatal(err)
		}
		if got >= 4<<20 {
			t.Errorf("checkpoint %d allocated %d bytes beside %d bytes of stores; want under 4 MiB", round, got, stores)
		}
	}
	ingestMixed(t, rep, 200, 220)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	var rec *System
	got := allocated(func() { rec, err = RecoverSystem(dir) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := stores * 9 / 4; got >= limit {
		t.Errorf("restart allocated %d bytes for %d bytes of stores (%.2f×); want under 2.25×", got, stores, float64(got)/float64(stores))
	}
	requireSameStores(t, rec, sys)
}
