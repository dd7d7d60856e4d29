package engine

import (
	"errors"
	"testing"

	"dta/internal/obs/trace"
	"dta/internal/wire"
)

// recordSink logs processing order and snapshots every record it
// receives; only the shard worker touches it while the engine runs, and
// tests read it only after Drain/Close (both establish happens-before).
type recordSink struct {
	ops     []string // "p" per record, "f" per flush
	reports []wire.StagedReport
	flushes int
	lastNow uint64
	err     error // every record fails with it when set
}

func (s *recordSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, _ []trace.Handle, nowNs uint64) (failed int, first error) {
	for j := range wire.ViewLen(recs, idx) {
		s.ops = append(s.ops, "p")
		s.reports = append(s.reports, recs[wire.ViewAt(idx, j)])
		s.lastNow = nowNs
		if s.err != nil {
			failed, first = failed+1, s.err
		}
	}
	return failed, first
}

func (s *recordSink) Flush(nowNs uint64) error {
	s.ops = append(s.ops, "f")
	s.flushes++
	s.lastNow = nowNs
	return nil
}

// gatedSink blocks every chunk on gate; entered signals the first
// arrival so tests know the worker is mid-chunk.
type gatedSink struct {
	recordSink
	entered chan struct{}
	gate    chan struct{}
}

func (s *gatedSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (int, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.gate
	return s.recordSink.ProcessStagedBatch(recs, idx, plan, trcs, nowNs)
}

func mustEngine(t *testing.T, sinks []Sink, cfg Config) *Engine {
	t.Helper()
	e, err := New(sinks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// enqueue queues report i on shard as a chunk of one.
func enqueue(e *Engine, shard, i int, nowNs uint64) error {
	return enqueueReport(e, shard, kwReport(uint64(i), nil), nowNs)
}

// enqueueReport queues rep on shard as a chunk of one, through a
// Submitter of its own.
func enqueueReport(e *Engine, shard int, rep *wire.Report, nowNs uint64) error {
	sub := e.Submitter()
	if err := sub.SubmitReport(shard, rep, nowNs); err != nil {
		return err
	}
	return sub.Flush()
}

func TestEnqueueAfterClose(t *testing.T) {
	sink := &recordSink{}
	e := mustEngine(t, []Sink{sink}, Config{})
	if err := enqueue(e, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enqueue(e, 0, 2, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after Close = %v, want ErrClosed", err)
	}
	if err := e.Drain(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
	if len(sink.reports) != 1 {
		t.Fatalf("records = %d, want 1 (pre-close report must be ingested)", len(sink.reports))
	}
	if sink.flushes != 1 {
		t.Fatalf("flushes = %d, want exactly the final close flush", sink.flushes)
	}
	// Idempotent.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestDrainWaitsForInFlightBatches(t *testing.T) {
	sink := &recordSink{}
	e := mustEngine(t, []Sink{sink}, Config{QueueDepth: 64, Batch: 8})
	const n = 100
	for i := 0; i < n; i++ {
		if err := enqueue(e, 0, i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(uint64(n)); err != nil {
		t.Fatal(err)
	}
	if len(sink.reports) != n {
		t.Fatalf("records after Drain = %d, want %d", len(sink.reports), n)
	}
	// The drain flush must come after every report, and the engine stays
	// usable afterwards.
	if got := sink.ops[len(sink.ops)-1]; got != "f" {
		t.Fatalf("last op = %q, want flush", got)
	}
	for _, op := range sink.ops[:n] {
		if op != "p" {
			t.Fatalf("flush interleaved before all %d reports: %v", n, sink.ops)
		}
	}
	if sink.lastNow != n {
		t.Fatalf("flush now = %d, want %d", sink.lastNow, n)
	}
	if err := enqueue(e, 0, 0xff, n+1); err != nil {
		t.Fatalf("enqueue after Drain = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.reports) != n+1 {
		t.Fatalf("records after Close = %d, want %d", len(sink.reports), n+1)
	}
	st := e.Stats()
	if st.Enqueued != n+1 || st.Processed != n+1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d enqueued/processed, 0 dropped", st, n+1)
	}
}

func TestDropPolicyCounterAccuracy(t *testing.T) {
	sink := &gatedSink{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	e := mustEngine(t, []Sink{sink}, Config{QueueDepth: 2, Batch: 1, Policy: Drop})

	// First report: worker picks it up and blocks mid-chunk.
	if err := enqueue(e, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	<-sink.entered
	// Next two fill the queue; five more must be shed.
	for i := 1; i < 8; i++ {
		if err := enqueue(e, 0, i, 0); err != nil {
			t.Fatalf("Drop-policy enqueue %d = %v, want nil", i, err)
		}
	}
	if st := e.Stats(); st.Enqueued != 3 || st.Dropped != 5 {
		t.Fatalf("stats while gated = %+v, want 3 enqueued / 5 dropped", st)
	}
	close(sink.gate)
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Enqueued != 3 || st.Processed != 3 || st.Dropped != 5 {
		t.Fatalf("stats after drain = %+v, want enqueued=processed=3, dropped=5", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPolicyIsLossless(t *testing.T) {
	sink := &gatedSink{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	e := mustEngine(t, []Sink{sink}, Config{QueueDepth: 2, Batch: 4, Policy: Block})
	const n = 64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := enqueue(e, 0, i, 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	<-sink.entered
	close(sink.gate) // producer is (or will be) blocked on the tiny queue
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Enqueued != n || st.Processed != n || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d enqueued/processed, 0 dropped", st, n)
	}
}

// TestDrainFlushesOnce: processing reports never flushes the sink; the
// Drain barrier flushes it exactly once.
func TestDrainFlushesOnce(t *testing.T) {
	sink := &recordSink{}
	e := mustEngine(t, []Sink{sink}, Config{Batch: 4})
	for i := 0; i < 35; i++ {
		if err := enqueue(e, 0, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	if sink.flushes != 1 {
		t.Fatalf("flushes = %d, want 1: %v", sink.flushes, sink.ops)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkErrorSurfaces(t *testing.T) {
	bad := errors.New("collector rejected")
	sink := &recordSink{err: bad}
	e := mustEngine(t, []Sink{sink}, Config{})
	if err := enqueue(e, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(0); !errors.Is(err, bad) {
		t.Fatalf("Drain = %v, want %v", err, bad)
	}
	if st := e.Stats(); st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
	if err := e.Close(); !errors.Is(err, bad) {
		t.Fatalf("Close = %v, want %v", err, bad)
	}
}

func TestSubmitterStagesAndFlushes(t *testing.T) {
	sink := &recordSink{}
	e := mustEngine(t, []Sink{sink}, Config{ChunkFrames: 8})
	sub := e.Submitter()
	for i := 0; i < 20; i++ {
		if err := sub.SubmitReport(0, kwReport(uint64(i), nil), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two full chunks are queued; four reports remain staged.
	if st := e.Stats(); st.Enqueued != 16 {
		t.Fatalf("enqueued = %d, want 16 before Flush", st.Enqueued)
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(20); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Enqueued != 20 || st.Processed != 20 {
		t.Fatalf("stats = %+v, want 20 enqueued and processed", st)
	}
	if len(sink.reports) != 20 {
		t.Fatalf("records = %d, want 20", len(sink.reports))
	}
	if sink.lastNow != 20 {
		t.Fatalf("flush now = %d, want 20", sink.lastNow)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := mustEngine(t, []Sink{&recordSink{}}, Config{})
	sub := e.Submitter()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sub.SubmitReport(0, kwReport(1, nil), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitReport after Close = %v, want ErrClosed", err)
	}
}

func TestMultiShardIsolation(t *testing.T) {
	a, b := &recordSink{}, &recordSink{}
	e := mustEngine(t, []Sink{a, b}, Config{})
	for i := 0; i < 10; i++ {
		if err := enqueue(e, i%2, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := enqueue(e, 2, 0, 0); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(a.reports) != 5 || len(b.reports) != 5 {
		t.Fatalf("records = %d/%d, want 5/5", len(a.reports), len(b.reports))
	}
	s0, s1 := e.ShardStats(0), e.ShardStats(1)
	if s0.Processed != 5 || s1.Processed != 5 {
		t.Fatalf("per-shard processed = %d/%d, want 5/5", s0.Processed, s1.Processed)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// settleSink is a BatchSink that records where the worker settles.
type settleSink struct {
	recordSink
	settleErr error
}

func (s *settleSink) BatchEnd(nowNs uint64) error {
	s.ops = append(s.ops, "b")
	return nil
}

func (s *settleSink) Settle() error {
	s.ops = append(s.ops, "s")
	return s.settleErr
}

// TestWorkerSettlesOnlyForDrainAndClose: the worker marks every dequeue
// batch (BatchEnd) but waits for the sink's side work (Settle) only where
// someone is owed it — once before a Drain is released, after that
// batch's BatchEnd, and once on the way out — never per batch. A Settle
// error reaches Engine.Err.
func TestWorkerSettlesOnlyForDrainAndClose(t *testing.T) {
	sink := &settleSink{}
	e := mustEngine(t, []Sink{sink}, Config{})
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			if err := enqueue(e, 0, i, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(0); err != nil {
			t.Fatal(err)
		}
		// Drain has returned: the ops so far end "...f b s" — the drain's
		// flush, its batch's BatchEnd, then the settle that released us.
		n := len(sink.ops)
		if n < 3 || sink.ops[n-1] != "s" || sink.ops[n-2] != "b" || sink.ops[n-3] != "f" {
			t.Fatalf("round %d: Drain released after %v, want a tail of f b s", round, sink.ops)
		}
	}
	settles, batches := 0, 0
	for _, op := range sink.ops {
		switch op {
		case "s":
			settles++
		case "b":
			batches++
		}
	}
	if settles != 3 {
		t.Fatalf("%d settles for 3 drains (ops %v)", settles, sink.ops)
	}
	if batches < 3 {
		t.Fatalf("%d BatchEnd calls for at least 3 dequeue batches", batches)
	}
	sink.settleErr = errors.New("disk gone")
	if err := e.Close(); !errors.Is(err, sink.settleErr) {
		t.Fatalf("Close = %v, want the settle error", err)
	}
	if last := sink.ops[len(sink.ops)-1]; last != "s" {
		t.Fatalf("worker exited after %q, want a final settle", last)
	}
	if st := e.Stats(); st.Errors != 1 {
		t.Fatalf("Errors = %d, want the one settle error", st.Errors)
	}
}
