package dta

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dta/internal/ha"
	"dta/internal/obs/journal"
	"dta/internal/snapshot"
	"dta/internal/wal"
	"dta/internal/wire"
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

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointHoldsNoSecondImage pins the memory property of the
// durability path by counting allocated bytes, not by sampling RSS: a
// checkpoint streams out of store memory (no copy of the stores, no
// encoder buffer), and a restart reads the image into the stores it
// allocates and nothing else of its size.
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
	if limit := stores + 4<<20; got >= limit {
		t.Errorf("restart allocated %d bytes for %d bytes of stores; want under the stores + 4 MiB", got, stores)
	}
	requireSameStores(t, rec, sys)
}

// TestRestoreInPlaceMatchesResync: reading the checkpoint image straight
// into a fresh system's stores, with the Append heads handed to its
// batcher, leaves exactly the state the restore it replaced did — that
// one, an ha.Resync of the loaded image into fresh stores, is kept here as
// the reference — for all four primitives and Append rings that have
// lapped.
func TestRestoreInPlaceMatchesResync(t *testing.T) {
	opts := fullOptions()
	opts.Append.EntriesPerList = 64
	dir := t.TempDir()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, sys.Reporter(1), 0, 300)
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live := sys.Translator().AppendBatcher()
	for l := 0; l < opts.Append.Lists; l++ {
		if live.Written(l) <= uint64(opts.Append.EntriesPerList) {
			t.Fatalf("list %d holds %d entries: its ring has not lapped", l, live.Written(l))
		}
	}

	ck, err := snapshot.Load(filepath.Join(dir, "checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ha.Resync(ha.Target{Host: ref.host, Batcher: ref.tr.AppendBatcher()}, []ha.Peer{{Snap: ck}}); err != nil {
		t.Fatal(err)
	}

	got, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir, snapshot.View(got.host), got.tr.AppendBatcher(),
		func(lsn, _ uint64, _ *wire.StagedReport) error {
			t.Errorf("LSN %d replayed: the image covers the whole log", lsn)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	requireSameStores(t, got, ref)
	requireSameStores(t, got, sys)
	heads := got.tr.AppendBatcher().WrittenCounts(nil)
	if want := ref.tr.AppendBatcher().WrittenCounts(nil); !slices.Equal(heads, want) || !slices.Equal(rec.AppendHeads, want) {
		t.Errorf("WrittenCounts in place %v, reported %v; the resync restore gives %v", heads, rec.AppendHeads, want)
	}
}

// TestRecoveryMemoryIndependentOfLog pins the read side's working memory
// by counting allocated bytes: over a 48 MiB tail segment with a torn end,
// a restart and every log scan allocate one read buffer beside the stores,
// not a copy of the segment.
func TestRecoveryMemoryIndependentOfLog(t *testing.T) {
	opts := Options{KeyWrite: &KeyWriteOptions{Slots: 1 << 10, DataSize: wire.MaxData}}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := wal.SaveMeta(dir, &wal.Meta{Translator: sys.Translator().Config()}); err != nil {
		t.Fatal(err)
	}
	// Two identical records at time 0: the second one's frame (timestamp
	// delta 0) repeated is a valid segment of any length.
	w, err := wal.Create(dir, WALPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	var staged wire.StagedReport
	staged.Stage(&wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: 2, DataLen: wire.MaxData, Key: KeyFromUint64(7)},
		Data:     bytes.Repeat([]byte{0x5a}, wire.MaxData),
	})
	for range 2 {
		if _, err := w.Append(&staged, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) != 1 || segs[0].Records != 2 {
		t.Fatalf("seed segment: %+v (%v)", segs, err)
	}
	path := segs[0].Path
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := b[len(b)-(len(b)-16)/2:]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat(frame, (1<<20)/len(frame))
	for size := len(b); size < 48<<20; size += len(block) {
		if _, err := f.Write(block); err != nil {
			t.Fatal(err)
		}
	}
	torn := frame[:len(frame)/2]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	const slack = 2 << 20
	measure := func(name string, limit uint64, fn func() error) {
		t.Helper()
		var err error
		if got := allocated(func() { err = fn() }); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if got >= limit {
			t.Errorf("%s allocated %d bytes over a 48 MiB segment; want under %d", name, got, limit)
		}
	}
	var records int
	measure("wal.Segments", slack, func() error {
		segs, err := wal.Segments(dir)
		if err == nil && (segs[0].Records < (48<<20)/len(frame) || segs[0].TornBytes != int64(len(torn))) {
			err = fmt.Errorf("scanned %+v", segs[0])
		}
		records = segs[0].Records
		return err
	})
	measure("wal.Replay", slack, func() error {
		n := 0
		_, err := wal.Replay(dir, 1, func(uint64, uint64, *wire.StagedReport) error { n++; return nil })
		if err == nil && n != records {
			err = fmt.Errorf("replayed %d records of %d", n, records)
		}
		return err
	})
	measure("wal.RepairTail", slack, func() error {
		removed, err := wal.RepairTail(dir)
		if err == nil && removed != int64(len(torn)) {
			err = fmt.Errorf("removed %d torn bytes, want %d", removed, len(torn))
		}
		return err
	})
	// A restart allocates a fresh system — the stores, and the rest of
	// what New builds — and beyond that one read buffer.
	fresh := allocated(func() { _, err = New(opts) })
	if err != nil {
		t.Fatal(err)
	}
	var rec *System
	measure("RecoverSystem", fresh+slack, func() error {
		rec, err = RecoverSystem(dir)
		return err
	})
	if v, ok, err := rec.LookupValue(KeyFromUint64(7), 2); err != nil || !ok || !bytes.Equal(v, staged.Payload()) {
		t.Errorf("recovered LookupValue = %x %v %v", v, ok, err)
	}
	measure("wal.Create", slack, func() error {
		w, err := wal.Create(dir, WALPolicy{})
		if err != nil {
			return err
		}
		return w.Close()
	})
}

// TestHAImageFallbackResyncsInFull: resync writes bypass the log, so a
// member that has to pass over its newest image — the one its post-resync
// checkpoint wrote — comes back without them. HACluster.Recover marks it
// stale from epoch 0 under the recovery's cause, and the next Rebalance
// replays its peers into it in full: afterwards every key it owns reads
// exactly as its peers read it.
func TestHAImageFallbackResyncsInFull(t *testing.T) {
	dir := t.TempDir()
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	write := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.KeyWrite(KeyFromUint64(uint64(i)), keyData(uint64(i)), 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	const victim, n = 1, 400
	write(0, 100)
	if _, err := c.System(victim).Checkpoint(); err != nil { // the older generation
		t.Fatal(err)
	}
	if err := c.SetDown(victim); err != nil {
		t.Fatal(err)
	}
	write(100, 300) // the victim misses these; the resync below writes them
	if err := c.SetUp(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(); err != nil { // resyncs the victim, then checkpoints it
		t.Fatal(err)
	}
	write(300, n)
	if err := c.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(walSubdir(dir, victim), "checkpoint.snap"), 100)

	c2, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := c2.Rebalance(); err != nil {
		t.Fatal(err)
	}
	owned := 0
	for i := 0; i < n; i++ {
		k := KeyFromUint64(uint64(i))
		owners := c2.Owners(k)
		if !slices.Contains(owners, victim) {
			continue
		}
		owned++
		vv, vok, verr := c2.System(victim).LookupValue(k, 2)
		for _, o := range owners {
			if pv, pok, perr := c2.System(o).LookupValue(k, 2); pok != vok || !bytes.Equal(pv, vv) || (perr == nil) != (verr == nil) {
				t.Fatalf("key %d: collector %d reads %x %v %v, its peer %d reads %x %v %v", i, victim, vv, vok, verr, o, pv, pok, perr)
			}
		}
	}
	if owned == 0 {
		t.Fatal("the victim owns no key")
	}
	// The healing chains under the recovery that found the damage.
	events, _, _ := c2.Journal().Since(0, nil)
	fallback := map[uint64]bool{}
	healed := false
	for _, ev := range events {
		switch {
		case ev.Collector != victim:
		case ev.Type == journal.EvImageFallback:
			fallback[ev.Cause] = true
		case ev.Type == journal.EvResyncStart:
			healed = healed || fallback[ev.Cause] && ev.Arg1 == 0
		}
	}
	if !healed {
		t.Errorf("no full resync of collector %d under its recovery's cause: %+v", victim, events)
	}
}
