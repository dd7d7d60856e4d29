package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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
	for i := range sink.reports {
		r := &sink.reports[i]
		if r.Primitive() != wire.PrimKeyWrite {
			t.Fatalf("report %d: primitive %v", i, r.Primitive())
		}
		key, red := r.KeyWriteArgs()
		if *key != wire.KeyFromUint64(uint64(i)) {
			t.Fatalf("report %d: wrong key (order not preserved?)", i)
		}
		if data := r.Payload(); red != 2 || len(data) != 3 || data[0] != 9 {
			t.Fatalf("report %d: fields corrupted: redundancy %d data=%v", i, red, data)
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
	if got := sink.reports[0].Payload(); got[0] != 1 {
		t.Fatalf("first report data = %v, want the pre-reuse snapshot", got)
	}
	if got := sink.reports[1].Payload(); got[0] != 2 {
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

func (s *nullSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, _ []trace.Handle, _ uint64) (int, error) {
	s.n += wire.ViewLen(recs, idx)
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

func (s *batchRecordSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error) {
	s.chunks = append(s.chunks, wire.ViewLen(recs, idx))
	s.nows = append(s.nows, nowNs)
	for i := range wire.ViewLen(recs, idx) {
		var id uint64
		if i < len(trcs) {
			id = trcs[i].ID()
		}
		s.traceID = append(s.traceID, id)
		if key, _ := recs[wire.ViewAt(idx, i)].KeyWriteArgs(); key.Uint64()&1 == 1 {
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

// prefixSink records, per chunk, its records' keys, the handle prefix
// (live or zero per handle) and the chunk's backing array, by which a
// recycled chunk is recognised.
type prefixSink struct {
	recordSink
	chunks []prefixChunk
}

type prefixChunk struct {
	keys       []uint64
	live, zero []bool // per handle of the prefix
	backing    *wire.StagedReport
}

func (s *prefixSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, trcs []trace.Handle, _ uint64) (int, error) {
	ck := prefixChunk{backing: &recs[0]}
	for j := range wire.ViewLen(recs, idx) {
		key, _ := recs[wire.ViewAt(idx, j)].KeyWriteArgs()
		ck.keys = append(ck.keys, key.Uint64())
	}
	for _, h := range trcs {
		ck.live = append(ck.live, h.Valid())
		ck.zero = append(ck.zero, h == trace.Handle{})
	}
	s.chunks = append(s.chunks, ck)
	return 0, nil
}

// TestSampledOutChunksCarryNoHandles pins the handle prefix: a chunk's
// handles end at its last trace candidate, every handle before that is a
// candidate's or the zero handle — never one a recycled chunk held
// before — and every candidate the sampler drew carries a live handle.
func TestSampledOutChunksCarryNoHandles(t *testing.T) {
	// One P and no GC: the chunks the worker pools are the producer's
	// next ones, so handle arrays really are reused.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const shift, frames = 4, 13 // chunk boundaries drift against the sampler's period
	sink := &prefixSink{}
	e := mustEngine(t, []Sink{sink}, Config{ChunkFrames: frames, Trace: trace.New(trace.Config{CandidateShift: shift})})
	defer e.Close()
	sub := e.Submitter()
	var key uint64
	for round := 0; round < 6; round++ {
		for i := 0; i < 4*frames+3*round; i++ {
			if err := sub.SubmitReport(0, kwReport(key, []byte{1}), 0); err != nil {
				t.Fatal(err)
			}
			key++
		}
		if err := sub.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(0); err != nil {
			t.Fatal(err)
		}
	}
	candidate := func(k uint64) bool { return (k+1)%(1<<shift) == 0 } // the sampler's n is key+1
	var live uint64
	reused := false
	seen := map[*wire.StagedReport]bool{}
	for c, ck := range sink.chunks {
		reused = reused || seen[ck.backing]
		seen[ck.backing] = true
		end := 0
		for i, l := range ck.live {
			if l {
				end = i + 1
				live++
			}
			if l != candidate(ck.keys[i]) || l == ck.zero[i] {
				t.Errorf("chunk %d, key %d: live handle %v, zero handle %v, candidate %v", c, ck.keys[i], l, ck.zero[i], candidate(ck.keys[i]))
			}
		}
		if len(ck.live) != end {
			t.Errorf("chunk %d: %d handles, want %d (up to its last candidate)", c, len(ck.live), end)
		}
		for _, k := range ck.keys[len(ck.live):] {
			if candidate(k) {
				t.Errorf("chunk %d: candidate key %d past the handle prefix", c, k)
			}
		}
	}
	if want := key >> shift; live != want {
		t.Errorf("%d live handles, want one per candidate: %d", live, want)
	}
	if !reused {
		t.Fatal("no chunk was recycled: the prefix was never built over a used handle array")
	}
}

// TestClosedSubmitterReleasesTraceSlots: candidates staged on two shards
// and never flushed hold trace slots past Close; the Submitter's next
// call (Flush or a submission, both failing with ErrClosed) releases
// every one of them, over several engines sharing one tracer.
func TestClosedSubmitterReleasesTraceSlots(t *testing.T) {
	const inFlight = 2
	tracer := trace.New(trace.Config{CandidateShift: 1, InFlight: inFlight})
	for round := 0; round < 3; round++ {
		e := mustEngine(t, []Sink{&recordSink{}, &recordSink{}}, Config{ChunkFrames: 32, Trace: tracer})
		sub := e.Submitter()
		for i, shard := range []int{0, 0, 1, 1} { // every 2nd submit is a candidate: one per shard
			if err := sub.SubmitReport(shard, kwReport(uint64(i), []byte{1}), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		err := sub.Flush()
		if round == 1 {
			err = sub.SubmitReport(0, kwReport(0, nil), 0)
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: next call after Close = %v, want ErrClosed", round, err)
		}
		var hs [inFlight]trace.Handle
		for i := range hs {
			if hs[i] = tracer.BeginCandidate(); !hs[i].Valid() {
				t.Fatalf("round %d: only %d of %d trace slots free after the Submitter's next call", round, i, inFlight)
			}
		}
		for _, h := range hs {
			h.Abort()
		}
	}
	if n := tracer.Exhausted(); n != 0 {
		t.Errorf("%d candidates found the slot pool empty", n)
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

func planOf(rec *wire.StagedReport) (prim wire.Primitive, slots []uint32, op []byte) {
	if rec.Primitive() != wire.PrimKeyWrite {
		return 0, nil, nil
	}
	key, red := rec.KeyWriteArgs()
	k := uint32(key.Uint64())
	for i := uint32(0); i < uint32(red); i++ {
		slots = append(slots, k*8+i)
	}
	return wire.PrimKeyWrite, slots, binary.BigEndian.AppendUint32(nil, ^k)
}

func (s *planSink) PlanStaged(rec *wire.StagedReport, p *wire.ChunkPlan) {
	prim, slots, op := planOf(rec)
	start, m := len(p.Slots), len(p.Operands)
	p.Slots, p.Operands = append(p.Slots, slots...), append(p.Operands, op...)
	p.Planned(prim, rec.Flags(), start, m)
}

func (s *planSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, plan wire.ChunkPlan, _ []trace.Handle, nowNs uint64) (int, error) {
	s.chunks++
	s.recs += wire.ViewLen(recs, idx)
	if len(plan.Recs) != len(recs) {
		return 0, nil
	}
	s.planned++
	for j := range wire.ViewLen(recs, idx) {
		i := wire.ViewAt(idx, j)
		prim, slots, op := planOf(&recs[i])
		flags := recs[i].Flags()
		if len(slots) == 0 {
			prim, flags, op = 0, 0, nil // an unplanned entry is all zero
		}
		if got := plan.Recs[i]; got.Prim() != prim || got.Flags() != flags || got.N() != len(slots) ||
			!slices.Equal(plan.SlotsOf(i), slots) || !bytes.Equal(plan.OperandOf(i), op) {
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
			rep.Header.Flags = uint8(i % 2) // the entry carries them
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
// clocks, trace handles per copy, chunk boundaries.
func TestFanOutStagesLikeSubmitReport(t *testing.T) {
	run := func(fan bool) (sinks [3]*batchRecordSink, st Stats) {
		for i := range sinks {
			sinks[i] = &batchRecordSink{}
		}
		tracer := trace.New(trace.Config{CandidateShift: 1})
		e := mustEngine(t, []Sink{sinks[0], sinks[1], sinks[2]}, Config{ChunkFrames: 4, Trace: tracer})
		sub := e.Submitter()
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
		t.Errorf("engine stats %+v fanned, %+v looped", fanStats, loopStats)
	}
	for i := range loop {
		if !slices.Equal(loop[i].chunks, fan[i].chunks) {
			t.Errorf("shard %d: chunk sizes %v fanned, %v looped", i, fan[i].chunks, loop[i].chunks)
		}
		valid := func(ids []uint64) (out []bool) {
			for _, id := range ids {
				out = append(out, id != 0)
			}
			return out
		}
		if !slices.Equal(valid(loop[i].traceID), valid(fan[i].traceID)) {
			t.Errorf("shard %d: traced records differ: %v fanned, %v looped", i, valid(fan[i].traceID), valid(loop[i].traceID))
		}
		if !slices.Equal(loop[i].nows, fan[i].nows) {
			t.Errorf("shard %d: chunk clocks %v fanned, %v looped", i, fan[i].nows, loop[i].nows)
		}
	}
}

// recipientSink records, per record, the 8 bytes an Append's recipient
// set shares with a Key-Increment's delta.
type recipientSink struct {
	recordSink
	sets []uint64
}

func (s *recipientSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, _ []trace.Handle, _ uint64) (int, error) {
	for j := range wire.ViewLen(recs, idx) {
		i := wire.ViewAt(idx, j)
		if recs[i].Primitive() == wire.PrimAppend {
			s.sets = append(s.sets, recs[i].Recipients())
		} else {
			_, _, delta := recs[i].KeyIncrementArgs()
			s.sets = append(s.sets, delta)
		}
	}
	return 0, nil
}

// TestFanOutStampsAppendRecipients: every copy of a fanned-out Append
// names the shards the fan-out staged it on; a single-shard submission
// stamps nothing, and a Key-Increment keeps its delta in the same bytes.
func TestFanOutStampsAppendRecipients(t *testing.T) {
	var sinks [3]*recipientSink
	for i := range sinks {
		sinks[i] = &recipientSink{}
	}
	e := mustEngine(t, []Sink{sinks[0], sinks[1], sinks[2]}, Config{ChunkFrames: 2})
	sub := e.Submitter()
	app := &wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: 3, DataLen: 1},
		Data:   []byte{7},
	}
	ki := kiReport(5)
	ki.KeyIncrement.Delta = 9
	steps := []func() error{
		func() error { return sub.SubmitReportFan([]int{2, 0}, []uint64{0, 0}, app) },
		func() error { return sub.SubmitReportFan([]int{0, 1, 2}, []uint64{0, 0, 0}, ki) },
		func() error { return sub.SubmitReportFan([]int{1}, []uint64{0}, app) },
		func() error { return sub.SubmitReport(1, app, 0) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	want := [3][]uint64{{0b101, 9}, {9, 0b010, 0}, {0b101, 9}}
	for i, s := range sinks {
		if !slices.Equal(s.sets, want[i]) {
			t.Errorf("shard %d: recipient sets / deltas %b, want %b", i, s.sets, want[i])
		}
	}
}
