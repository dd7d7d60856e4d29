package dta

import (
	"errors"
	"os"
	"testing"

	"dta/internal/rdma"
	"dta/internal/wal"
	"dta/internal/wire"
)

// replayOptions is a geometry whose replay takes every translator path
// the read-ahead must keep in order: planned Key-Writes, aggregated
// Key-Increments, cached postcards, batched appends and the limiter.
func replayOptions() Options {
	return Options{
		KeyWrite:     &KeyWriteOptions{Slots: 1 << 10, DataSize: 4},
		KeyIncrement: &KeyIncrementOptions{Slots: 1 << 8, AggregationRows: 64},
		Postcarding:  &PostcardingOptions{Chunks: 1 << 8, Hops: 3, Values: []uint32{1, 2, 3, 4, 5, 6, 7}, CacheRows: 16},
		Append:       &AppendOptions{Lists: 4, EntriesPerList: 1 << 8, EntrySize: 4, Batch: 4},
		RateLimit:    1e6,
	}
}

// writeLog logs st record by record, at each record's clock, into a
// fresh directory of segments of about segBytes, and returns it.
func writeLog(t *testing.T, opts Options, st *batchStream, segBytes int64) string {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.WithWAL(dir, WALPolicy{SegmentBytes: segBytes}); err != nil {
		t.Fatal(err)
	}
	for i := range st.recs {
		_ = s.tr.ProcessStaged(&st.recs[i], st.now[i]) // a failed record is logged all the same
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// damagedLog writes a mixed stream of several segments and flips one
// byte in the middle of the last segment but one.
func damagedLog(t *testing.T) string {
	t.Helper()
	dir := writeLog(t, replayOptions(), newBatchStream(5501, 8000), 96<<10)
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments: %+v (%v)", segs, err)
	}
	path := segs[len(segs)-2].Path
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayDoorbellsFollowCutRule counts the doorbells a restart rings
// over a log of Key-Writes in runs of one clock each. Every chunk posts
// and is at most one translator window long, so it rings exactly once,
// and the count is the number of chunks: a run of r records is
// ⌈r/replayChunk⌉ chunks, whatever batch the reader read them into. One
// run starts off the chunk grid and spans the first batch's edge.
func TestReplayDoorbellsFollowCutRule(t *testing.T) {
	runs := []int{1, 31, 32, 33, 100, replayBatch, 5, 1}
	opts := Options{KeyWrite: &KeyWriteOptions{Slots: 1 << 12, DataSize: 4}}
	st := &batchStream{}
	want := 0
	for r, n := range runs {
		want += (n + replayChunk - 1) / replayChunk
		for range n {
			i := len(st.recs)
			var rec wire.StagedReport
			rec.Stage(&wire.Report{
				Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
				KeyWrite: wire.KeyWrite{Redundancy: 1, Key: KeyFromUint64(uint64(i))},
				Data:     keyData(uint64(i)),
			})
			st.recs = append(st.recs, rec)
			st.now = append(st.now, uint64(r+1)*40_000)
		}
	}
	if len(st.recs) <= replayBatch {
		t.Fatalf("%d records fill no batch of %d", len(st.recs), replayBatch)
	}
	dir := writeLog(t, opts, st, 0)

	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	doorbells := 0
	ring := s.tr.Doorbell
	s.tr.Doorbell = func(c *rdma.Completion) error {
		doorbells++
		return ring(c)
	}
	last, err := s.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if last != uint64(len(st.recs)) {
		t.Fatalf("recovered to LSN %d, want %d", last, len(st.recs))
	}
	if doorbells != want {
		t.Errorf("replay rang %d doorbells over runs %v, want %d (one per chunk)", doorbells, runs, want)
	}
}

// TestRecoverAbortAppliesIntactPrefix: a byte flipped in a segment
// before the log's tail aborts a restart with wal.ErrCorrupt, after
// several batches were read ahead, and what was read intact before the
// damage is still applied: the stores and translator Stats equal a
// record-by-record replay of the same records.
func TestRecoverAbortAppliesIntactPrefix(t *testing.T) {
	dir := damagedLog(t)
	if sys, err := RecoverSystem(dir); !errors.Is(err, wal.ErrCorrupt) || sys != nil {
		t.Fatalf("RecoverSystem = %v, %v; want no system and wal.ErrCorrupt", sys, err)
	}

	serial, err := New(replayOptions())
	if err != nil {
		t.Fatal(err)
	}
	intact := 0
	if _, err := wal.Replay(dir, 1, func(_, nowNs uint64, rec *wire.StagedReport) error {
		intact++
		_ = serial.tr.ProcessStaged(rec, nowNs)
		return nil
	}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("serial replay: %v, want wal.ErrCorrupt", err)
	}
	if intact <= 2*replayBatch {
		t.Fatalf("%d records before the damage; want more than two batches of %d", intact, replayBatch)
	}

	s, err := New(replayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(dir); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Recover: %v, want wal.ErrCorrupt", err)
	}
	sameImages(t, "stores after the abort", storeImages(serial), storeImages(s))
	if got, want := s.tr.Stats(), serial.tr.Stats(); got != want {
		t.Errorf("translator Stats after the abort:\n read ahead %+v\n serial     %+v", got, want)
	}
}
