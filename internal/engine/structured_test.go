package engine

import (
	"errors"
	"runtime/debug"
	"slices"
	"testing"

	"dta/internal/obs/trace"
	"dta/internal/wire"
)

func kwReport(key uint64, data []byte) *wire.Report {
	return &wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: 2, DataLen: uint16(len(data)), Key: wire.KeyFromUint64(key)},
		Data:     data,
	}
}

func TestSubmitReportRoundTrip(t *testing.T) {
	sink := &recordSink{}
	e := mustEngine(t, []Sink{sink}, Config{ChunkFrames: 4})
	sub := e.Submitter()
	data := []byte{9, 8, 7}
	for i := 0; i < 10; i++ {
		if err := sub.SubmitReport(0, kwReport(uint64(i), data), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(100); err != nil {
		t.Fatal(err)
	}
	if len(sink.reports) != 10 {
		t.Fatalf("sink saw %d reports, want 10", len(sink.reports))
	}
	for i, r := range sink.reports {
		if r.Header.Primitive != wire.PrimKeyWrite {
			t.Fatalf("report %d: primitive %v", i, r.Header.Primitive)
		}
		if r.KeyWrite.Key != wire.KeyFromUint64(uint64(i)) {
			t.Fatalf("report %d: wrong key (order not preserved?)", i)
		}
		if r.KeyWrite.Redundancy != 2 || len(r.Data) != 3 || r.Data[0] != 9 {
			t.Fatalf("report %d: fields corrupted: %+v data=%v", i, r.KeyWrite, r.Data)
		}
	}
	st := e.Stats()
	if st.Enqueued != 10 || st.Processed != 10 {
		t.Fatalf("stats = %+v, want 10 enqueued+processed", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitReportPayloadSnapshot verifies the staged copy is immune to
// the producer reusing its payload buffer — the whole point of the
// inline payload array.
func TestSubmitReportPayloadSnapshot(t *testing.T) {
	sink := &recordSink{}
	e := mustEngine(t, []Sink{sink}, Config{ChunkFrames: 8})
	sub := e.Submitter()
	buf := []byte{1, 1, 1, 1}
	if err := sub.SubmitReport(0, kwReport(1, buf), 0); err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte{2, 2, 2, 2}) // producer reuses its buffer
	if err := sub.SubmitReport(0, kwReport(2, buf), 0); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	if got := sink.reports[0].Data; got[0] != 1 {
		t.Fatalf("first report data = %v, want the pre-reuse snapshot", got)
	}
	if got := sink.reports[1].Data; got[0] != 2 {
		t.Fatalf("second report data = %v", got)
	}
	e.Close()
}

// flushOnlySink takes no records at all.
type flushOnlySink struct{}

func (flushOnlySink) Flush(uint64) error { return nil }

// TestNewRejectsSinkWithoutStagedEntry: a sink with neither record entry
// could never ingest anything, so New refuses it up front instead of
// failing every submission.
func TestNewRejectsSinkWithoutStagedEntry(t *testing.T) {
	if _, err := New([]Sink{&recordSink{}, flushOnlySink{}}, Config{}); err == nil {
		t.Fatal("New accepted a sink that takes no staged records")
	}
}

// TestStructuredSteadyStateZeroAllocs pins the structured submission
// path at zero allocations per report once the chunk pool is warm. GC is
// disabled for the measurement so sync.Pool victim clearing cannot
// inject warmup re-allocations.
func TestStructuredSteadyStateZeroAllocs(t *testing.T) {
	sink := &nullSink{}
	e := mustEngine(t, []Sink{sink}, Config{ChunkFrames: 32, QueueDepth: 64})
	defer e.Close()
	sub := e.Submitter()
	rep := kwReport(1, []byte{1, 2, 3, 4})

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the pool and the chunk slices.
	for i := 0; i < 10_000; i++ {
		if err := sub.SubmitReport(0, rep, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := sub.SubmitReport(0, rep, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("structured submit allocated %.2f/op, want 0", allocs)
	}
}

// nullSink discards everything (for allocation measurements the
// recording sinks would themselves allocate).
type nullSink struct{ n int }

func (s *nullSink) ProcessStagedBatch(recs []wire.StagedReport, _ wire.ChunkPlan, _ []trace.Handle, _ uint64) (int, error) {
	s.n += len(recs)
	return 0, nil
}
func (s *nullSink) Flush(nowNs uint64) error { return nil }

// batchRecordSink is a StagedBatchSink that remembers how each chunk
// arrived and fails the records whose key is odd.
type batchRecordSink struct {
	recordSink
	chunks  []int    // records per ProcessStagedBatch call
	nows    []uint64 // clock per ProcessStagedBatch call
	traceID []uint64 // per record, in arrival order (0 = no valid handle)
}

var errOddKey = errors.New("odd key")

func (s *batchRecordSink) ProcessStagedBatch(recs []wire.StagedReport, _ wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error) {
	s.chunks = append(s.chunks, len(recs))
	s.nows = append(s.nows, nowNs)
	for i := range recs {
		var id uint64
		if i < len(trcs) {
			id = trcs[i].ID()
		}
		s.traceID = append(s.traceID, id)
		if key, _ := recs[i].KeyWriteArgs(); key.Uint64()&1 == 1 {
			if failed == 0 {
				first = errOddKey
			}
			failed++
		}
	}
	return failed, first
}

// TestWorkerHandsChunksToBatchSink: one sink call per submitted chunk,
// the chunk's trace handles riding along in record order (and still live:
// the worker releases them only after the call), and every failed record
// counted though the call returns a single error.
func TestWorkerHandsChunksToBatchSink(t *testing.T) {
	sink := &batchRecordSink{}
	tracer := trace.New(trace.Config{CandidateShift: 1}) // every 2nd submit is a candidate
	e := mustEngine(t, []Sink{sink}, Config{ChunkFrames: 4, Trace: tracer})
	sub := e.Submitter()
	for i := 0; i < 10; i++ {
		if err := sub.SubmitReport(0, kwReport(uint64(i), []byte{1}), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(0); !errors.Is(err, errOddKey) {
		t.Fatalf("Drain = %v, want %v", err, errOddKey)
	}
	if got, want := sink.chunks, []int{4, 4, 2}; !slices.Equal(got, want) {
		t.Fatalf("chunk sizes %v, want %v", got, want)
	}
	if st := e.Stats(); st.Processed != 10 || st.Errors != 5 {
		t.Fatalf("Processed/Errors = %d/%d, want 10/5", st.Processed, st.Errors)
	}
	valid := 0
	for i, id := range sink.traceID {
		if id != 0 {
			valid++
			if i%2 != 1 {
				t.Errorf("record %d carried trace %d; candidates are the odd submits", i, id)
			}
		}
	}
	if valid != 5 {
		t.Fatalf("%d records carried a live trace handle, want 5: %v", valid, sink.traceID)
	}
	if err := e.Close(); !errors.Is(err, errOddKey) {
		t.Fatalf("Close = %v", err)
	}
}

// stagedOnlySink implements the per-record entry only; New must wrap it
// so the worker's one path still reaches it, errors counted per record.
type stagedOnlySink struct{ staged int }

func (s *stagedOnlySink) ProcessStaged(rec *wire.StagedReport, nowNs uint64) error {
	s.staged++
	if key, _ := rec.KeyWriteArgs(); key.Uint64()&1 == 1 {
		return errOddKey
	}
	return nil
}

func (s *stagedOnlySink) Flush(uint64) error { return nil }

func TestPerRecordSinksAreAdapted(t *testing.T) {
	sink := &stagedOnlySink{}
	e := mustEngine(t, []Sink{sink}, Config{ChunkFrames: 4})
	sub := e.Submitter()
	for i := 0; i < 6; i++ {
		if err := sub.SubmitReport(0, kwReport(uint64(i), []byte{1}), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(0); !errors.Is(err, errOddKey) {
		t.Fatalf("Drain = %v, want %v", err, errOddKey)
	}
	if sink.staged != 6 {
		t.Fatalf("staged entry saw %d records, want 6", sink.staged)
	}
	if st := e.Stats(); st.Errors != 3 {
		t.Fatalf("Errors = %d, want 3", st.Errors)
	}
	e.Close()
}

// TestCoupledFanoutIsNeverHalfQueued: on a coupled submitter the leg of
// a fan-out that fills its shard's chunk must not queue that chunk while
// the fan-out's other legs are still unstaged — a watermark fence
// draining the engine in between would see the report on one owner and
// not the other. Full chunks go out when the owner flushes a Full
// submitter, after the fan-out.
func TestCoupledFanoutIsNeverHalfQueued(t *testing.T) {
	a, b := &recordSink{}, &recordSink{}
	e := mustEngine(t, []Sink{a, b}, Config{ChunkFrames: 2})
	defer e.Close()
	sub := e.Submitter()
	sub.SetCoupled(true)
	fan := func(key uint64, shards ...int) {
		t.Helper()
		for _, sh := range shards {
			if err := sub.SubmitReport(sh, kwReport(key, []byte{1}), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	fan(1, 0) // shard 0's chunk is one short of full
	// The fan-out of report 2, stopped between its legs: the first leg
	// filled shard 0's chunk.
	fan(2, 0)
	if err := e.Drain(0); err != nil { // what a fence does
		t.Fatal(err)
	}
	if len(a.reports) != 0 {
		t.Fatalf("shard 0 already ingested %d reports with report 2 unstaged on shard 1", len(a.reports))
	}
	fan(2, 1)
	if !sub.Full() {
		t.Fatal("submitter not Full after a leg filled shard 0's chunk")
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(a.reports) != 2 || len(b.reports) != 1 {
		t.Fatalf("after the fan-out: shard 0 has %d reports, shard 1 has %d; want 2 and 1", len(a.reports), len(b.reports))
	}
	// Nothing filled since: the owner leaves a partial chunk staged.
	fan(3, 0, 1)
	if sub.Full() {
		t.Fatal("submitter Full with only partial chunks staged")
	}
	if err := e.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(a.reports) != 2 || len(b.reports) != 1 {
		t.Fatalf("a partial chunk was queued: shard 0 has %d reports, shard 1 has %d", len(a.reports), len(b.reports))
	}
}

// planSink is a StagedBatchSink + StagedPlanner whose plan is a pure
// function of the record — redundancy-many slots derived from the key
// for Key-Writes, nothing for anything else — so the worker side can
// recompute what each record's entry must be. PlanStaged runs on
// producers beside the worker: it touches nothing but its arguments.
type planSink struct {
	recordSink
	chunks   int
	recs     int
	planned  int // chunks that arrived with a plan parallel to recs
	mistakes []string
}

func planOf(rec *wire.StagedReport) (prim wire.Primitive, csum uint32, slots []uint32) {
	if rec.Primitive() != wire.PrimKeyWrite {
		return 0, 0, nil
	}
	key, red := rec.KeyWriteArgs()
	k := uint32(key.Uint64())
	for i := uint32(0); i < uint32(red); i++ {
		slots = append(slots, k*8+i)
	}
	return wire.PrimKeyWrite, ^k, slots
}

func (s *planSink) PlanStaged(rec *wire.StagedReport, p *wire.ChunkPlan) {
	p.Append(planOf(rec))
}

func (s *planSink) ProcessStagedBatch(recs []wire.StagedReport, plan wire.ChunkPlan, _ []trace.Handle, nowNs uint64) (int, error) {
	s.chunks++
	s.recs += len(recs)
	if len(plan.Recs) != len(recs) {
		return 0, nil
	}
	s.planned++
	for i := range recs {
		prim, csum, slots := planOf(&recs[i])
		if len(slots) == 0 {
			prim, csum = 0, 0 // an unplanned entry is all zero
		}
		if got := plan.Recs[i]; got.Prim != prim || got.Csum != csum || int(got.N) != len(slots) || !slices.Equal(plan.SlotsOf(i), slots) {
			s.mistakes = append(s.mistakes, recs[i].Primitive().String())
		}
	}
	return 0, nil
}

func kiReport(key uint64) *wire.Report {
	return &wire.Report{
		Header:       wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
		KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: wire.KeyFromUint64(key), Delta: 1},
	}
}

// TestSubmitterPlansAtStaging: a sink with a plan entry gets every chunk
// with a plan parallel to its records — through SubmitReport, a
// chunk of one and the fan-out entry, on chunks recycled through the
// pool with other primitives and redundancies in their slots before —
// and each entry is exactly what the sink's PlanStaged makes of that
// record. A per-record sink on the next shard gets no plan at all.
func TestSubmitterPlansAtStaging(t *testing.T) {
	a, b, plain := &planSink{}, &planSink{}, &stagedOnlySink{}
	e := mustEngine(t, []Sink{a, b, plain}, Config{ChunkFrames: 8})
	sub := e.Submitter()
	nows := []uint64{0, 0}
	for round := 0; round < 50; round++ {
		for i := 0; i < 8; i++ {
			k := uint64(round*8+i) * 2 // even: stagedOnlySink fails odd keys
			rep := kwReport(k, []byte{1})
			rep.KeyWrite.Redundancy = uint8(1 + (round+i)%8)
			if (round+i)%3 == 0 {
				rep = kiReport(k) // planSink leaves these unplanned
			}
			var err error
			switch {
			case round%5 == 4 && i == 0:
				err = enqueueReport(e, 0, rep, 0)
			case round%2 == 0:
				err = sub.SubmitReportFan([]int{0, 1}, nows, rep)
			default:
				err = sub.SubmitReport(0, rep, 0)
				if err == nil {
					err = sub.SubmitReport(2, rep, 0)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if round%7 == 0 {
			if err := sub.Flush(); err != nil { // partial chunks too
				t.Fatal(err)
			}
		}
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*planSink{"shard 0": a, "shard 1 (fan-out copies)": b} {
		if s.chunks == 0 || s.planned != s.chunks {
			t.Errorf("%s: %d of %d chunks arrived planned", name, s.planned, s.chunks)
		}
		if len(s.mistakes) > 0 {
			t.Errorf("%s: %d records carried another record's plan (first: a %s)", name, len(s.mistakes), s.mistakes[0])
		}
	}
	// Every record reaches shard 0; shard 1 gets the even rounds' fan-outs,
	// less the five records that went alone as chunks of one instead.
	if a.recs != 50*8 || b.recs != 25*8-5 {
		t.Errorf("shard 0 saw %d records, shard 1 %d; want %d and %d", a.recs, b.recs, 50*8, 25*8-5)
	}
	if plain.staged == 0 {
		t.Error("the per-record sink saw nothing")
	}
}

// TestFanOutStagesLikeSubmitReport: SubmitReportFan leaves every shard
// exactly what one SubmitReport per shard would have — records, order,
// clocks, trace handles per copy, chunk boundaries — on plain and coupled
// submitters.
func TestFanOutStagesLikeSubmitReport(t *testing.T) {
	for _, coupled := range []bool{false, true} {
		run := func(fan bool) (sinks [3]*batchRecordSink, st Stats) {
			for i := range sinks {
				sinks[i] = &batchRecordSink{}
			}
			tracer := trace.New(trace.Config{CandidateShift: 1})
			e := mustEngine(t, []Sink{sinks[0], sinks[1], sinks[2]}, Config{ChunkFrames: 4, Trace: tracer})
			sub := e.Submitter()
			sub.SetCoupled(coupled)
			for i := 0; i < 23; i++ {
				shards := [][]int{{0, 1, 2}, {2, 0}, {1}, {}}[i%4]
				nows := []uint64{uint64(i), uint64(i) + 1, uint64(i) + 2}[:len(shards)]
				rep := kwReport(uint64(i)*2, []byte{byte(i)})
				if fan {
					if err := sub.SubmitReportFan(shards, nows, rep); err != nil {
						t.Fatal(err)
					}
				} else {
					for j, sh := range shards {
						if err := sub.SubmitReport(sh, rep, nows[j]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if coupled && sub.Full() {
					if err := sub.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := sub.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			return sinks, e.Stats()
		}
		loop, loopStats := run(false)
		fan, fanStats := run(true)
		loopStats.Batches, fanStats.Batches = 0, 0 // how the worker woke up: timing
		if loopStats != fanStats {
			t.Errorf("coupled=%v: engine stats %+v fanned, %+v looped", coupled, fanStats, loopStats)
		}
		for i := range loop {
			if !slices.Equal(loop[i].chunks, fan[i].chunks) {
				t.Errorf("coupled=%v shard %d: chunk sizes %v fanned, %v looped", coupled, i, fan[i].chunks, loop[i].chunks)
			}
			valid := func(ids []uint64) (out []bool) {
				for _, id := range ids {
					out = append(out, id != 0)
				}
				return out
			}
			if !slices.Equal(valid(loop[i].traceID), valid(fan[i].traceID)) {
				t.Errorf("coupled=%v shard %d: traced records differ: %v fanned, %v looped", coupled, i, valid(fan[i].traceID), valid(loop[i].traceID))
			}
			if !slices.Equal(loop[i].nows, fan[i].nows) {
				t.Errorf("coupled=%v shard %d: chunk clocks %v fanned, %v looped", coupled, i, fan[i].nows, loop[i].nows)
			}
		}
	}
}
