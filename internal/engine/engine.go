// Package engine implements an asynchronous, sharded ingest pipeline
// for DTA reports. The synchronous path in package dta pushes every
// report through a single reporter→translator→collector call chain; the
// engine instead places each collector's translator+host behind a
// dedicated worker goroutine with a bounded report queue, so N
// collectors ingest in parallel while any number of reporter goroutines
// enqueue concurrently.
//
// The design mirrors the paper's data-plane semantics (Langlet et al.,
// SIGCOMM 2023): reports are best-effort, so when a shard's queue is
// full the engine can either exert backpressure (Block) or drop the
// report and count it (Drop), just as the translator's token-bucket
// rate limiter sheds load with a counter rather than queueing
// unboundedly. And just as the translator batches appends to amortise
// RDMA messages, producers batch reports into chunks to amortise queue
// operations: per-report channel sends would cost more than the
// translator work itself.
//
// The engine carries one representation: staged records
// (wire.StagedReport). Wire frames are decoded to reports at the edge —
// the reporter handle or the socket loop that received them — before
// they reach a Submitter.
//
// Shard workers dequeue chunks in batches, flush the sink's
// translator-side aggregation state on a Drain barrier and on Close,
// and publish per-shard statistics through atomics so readers never
// block the data path.
package engine

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
	"dta/internal/wire"
)

// Sink is one shard's consumer. Implementations are NOT required to be
// goroutine-safe: the engine guarantees that exactly one worker
// goroutine touches a given sink. Records reach it through
// StagedBatchSink or, for per-record sinks, StagedSink: New refuses a
// sink that implements neither.
type Sink interface {
	// Flush pushes out partial aggregation state (append batches,
	// postcard caches, key-increment aggregates).
	Flush(nowNs uint64) error
}

// StagedSink is the per-record entry: New wraps a sink that has only
// this one in an adapter that calls it record by record.
type StagedSink interface {
	Sink
	// ProcessStaged ingests one staged record. s is only read during
	// the call.
	ProcessStaged(s *wire.StagedReport, nowNs uint64) error
}

// StagedBatchSink is how the worker hands records to a sink: one call
// per dequeued chunk, so the sink can overlap work across the chunk's
// records (the translator pre-touches every destination line before
// crafting the first packet).
type StagedBatchSink interface {
	// ProcessStagedBatch ingests recs in order. plan is what the sink's
	// own PlanStaged made of each record when it was staged (zero when the
	// sink is no StagedPlanner). trcs, when non-empty, runs parallel to
	// recs: trcs[i] is recs[i]'s data-plane trace handle (invalid when the
	// report was sampled out), for downstream layers to stamp their stages
	// on; the worker keeps ownership and releases the handles after the
	// call. All three are only read during the call. A failing record does
	// not stop the chunk: failed counts the records whose processing
	// returned an error and first is the earliest one.
	ProcessStagedBatch(recs []wire.StagedReport, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error)
}

// StagedPlanner is the optional staging-side half of a StagedBatchSink:
// the part of a record's processing that needs nothing but the record
// and state fixed before the engine started. Submitters run it as they
// stage — on the producer's core, which is otherwise idle while the
// shard worker is the bottleneck — and the result rides with the chunk.
type StagedPlanner interface {
	// PlanStaged appends rec's plan to p. It is called from any number of
	// submitting goroutines at once, beside the worker's
	// ProcessStagedBatch, so it must not write anything but p.
	PlanStaged(rec *wire.StagedReport, p *wire.ChunkPlan)
}

// perRecord adapts a StagedSink to StagedBatchSink. Trace handles stop
// here: a per-record sink has no way to take them. It plans nothing, so
// its chunks carry no plan.
type perRecord struct{ sink StagedSink }

func (a perRecord) ProcessStagedBatch(recs []wire.StagedReport, _ wire.ChunkPlan, _ []trace.Handle, nowNs uint64) (failed int, first error) {
	for i := range recs {
		if err := a.sink.ProcessStaged(&recs[i], nowNs); err != nil {
			if failed == 0 {
				first = err
			}
			failed++
		}
	}
	return failed, first
}

// BatchSink is an optional Sink extension for sinks with batch-granular
// side work that completes off the worker — a write-ahead log's group
// commit. Errors are recorded like sink errors.
type BatchSink interface {
	// BatchEnd is invoked on the worker goroutine after each dequeue
	// batch finishes processing. It starts the side work and must not
	// wait for it: the worker goes straight back to its queue.
	BatchEnd(nowNs uint64) error
	// Settle blocks until the work started by every earlier BatchEnd and
	// Flush is complete. The worker calls it only where someone is owed
	// that guarantee: before it releases a Drain, and before it exits.
	Settle() error
}

// Policy selects the backpressure behaviour when a shard queue is full.
type Policy int

const (
	// Block makes submissions wait for queue space (lossless ingest).
	Block Policy = iota
	// Drop sheds the chunk and counts its reports as Dropped, mirroring
	// the translator rate limiter's drop-with-stat semantics.
	Drop
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config tunes the engine.
type Config struct {
	// QueueDepth bounds each shard's chunk queue (0 = 256). Worst-case
	// buffered reports per shard ≈ QueueDepth × ChunkFrames.
	QueueDepth int
	// ChunkFrames is how many reports a Submitter stages per shard
	// before handing the chunk to the worker (0 = 32). 1 disables
	// producer-side batching.
	ChunkFrames int
	// Batch is the maximum chunk-dequeue batch per worker wakeup (0 = 16).
	Batch int
	// Policy selects Block (default) or Drop backpressure.
	Policy Policy
	// Obs, when non-nil, registers per-shard engine metrics
	// (dta_engine_*) under this scope with a shard label. The counters
	// behind ShardStats live in the obs registry either way — a nil
	// scope just leaves them unexposed — so Stats() and the HTTP
	// endpoint can never disagree.
	Obs *obs.Scope
	// Journal, when non-nil, receives queue-stall episode events
	// (Block-policy producers finding a shard queue full): one
	// start/end pair per episode however many producers pile up, with
	// the blocked duration on the end event. Nil costs one branch on
	// the (already stalled) slow path and nothing on the fast path.
	Journal *journal.Journal
	// Trace, when non-nil, samples end-to-end data-plane traces:
	// Submitters begin traces, the worker stamps queue stages and hands
	// the chunk's handles to the sink. Nil keeps the hot path at one
	// predicted branch.
	Trace *trace.Tracer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueDepth <= 0 {
		out.QueueDepth = 256
	}
	if out.ChunkFrames <= 0 {
		out.ChunkFrames = 32
	}
	if out.Batch <= 0 {
		out.Batch = 16
	}
	return out
}

// Stats snapshots one shard's (or, summed, the whole engine's) counters.
// It is a view over the shard's obs metrics: the same atomic cells back
// this struct and the Prometheus exposition.
type Stats struct {
	Enqueued  uint64 // reports accepted into a queue
	Processed uint64 // reports handed to the sink
	Dropped   uint64 // reports shed by the Drop policy
	Batches   uint64 // worker dequeue batches
	Flushes   uint64 // sink flushes (drain + close)
	Errors    uint64 // sink errors (first one retained, see Err)
	Stalls    uint64 // Block-policy sends that found the queue full
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Enqueued += other.Enqueued
	s.Processed += other.Processed
	s.Dropped += other.Dropped
	s.Batches += other.Batches
	s.Flushes += other.Flushes
	s.Errors += other.Errors
	s.Stalls += other.Stalls
}

// ErrClosed is returned by submissions and Drain after Close.
var ErrClosed = errors.New("engine: closed")

// chunk is one queue entry: zero or more staged records, or a drain
// barrier (non-nil drain). Its backing slices are recycled through the
// engine pool, so steady-state ingest allocates nothing.
type chunk struct {
	recs  []wire.StagedReport
	plan  wire.ChunkPlan // parallel to recs when the sink plans; else empty
	trcs  []trace.Handle // parallel to recs when tracing; else empty
	nowNs uint64         // latest clock among the staged entries
	drain chan struct{}
}

func (c *chunk) reset() {
	c.recs = c.recs[:0]
	c.plan.Reset()
	c.trcs = c.trcs[:0]
	c.nowNs = 0
	c.drain = nil
}

// shardCounters holds one shard's metrics. The producer-side cells
// (enqueued/dropped/stalls) are striped: any number of reporter
// goroutines bump them concurrently, and a single LOCK-ADD cell there
// would serialise the very fan-in the shards exist to parallelise. The
// worker-side cells are single-writer padded counters. All of them are
// obs primitives whether or not a Scope was configured — Stats() reads
// the same memory the exposition renders.
type shardCounters struct {
	enqueued  *obs.ShardedCounter
	dropped   *obs.ShardedCounter
	stalls    *obs.ShardedCounter
	processed *obs.Counter
	batches   *obs.Counter
	flushes   *obs.Counter
	errors    *obs.Counter
	batchNs   *obs.Histogram // per-dequeue-batch on-CPU time; nil when unobserved
}

func newShardCounters(sc *obs.Scope) shardCounters {
	return shardCounters{
		enqueued:  sc.ShardedCounter("dta_engine_enqueued_total", "Reports accepted into the shard queue."),
		dropped:   sc.ShardedCounter("dta_engine_dropped_total", "Reports shed by the Drop backpressure policy."),
		stalls:    sc.ShardedCounter("dta_engine_queue_stalls_total", "Block-policy sends that found the queue full and had to wait."),
		processed: sc.Counter("dta_engine_processed_total", "Reports handed to the shard sink."),
		batches:   sc.Counter("dta_engine_batches_total", "Worker dequeue batches."),
		flushes:   sc.Counter("dta_engine_flushes_total", "Sink flushes (drain, close)."),
		errors:    sc.Counter("dta_engine_errors_total", "Sink errors."),
		batchNs:   sc.Histogram("dta_engine_batch_ns", "Worker on-CPU nanoseconds per dequeue batch; sum/wall-clock is shard utilization."),
	}
}

func (c *shardCounters) snapshot() Stats {
	return Stats{
		Enqueued:  c.enqueued.Load(),
		Processed: c.processed.Load(),
		Dropped:   c.dropped.Load(),
		Batches:   c.batches.Load(),
		Flushes:   c.flushes.Load(),
		Errors:    c.errors.Load(),
		Stalls:    c.stalls.Load(),
	}
}

type shard struct {
	sink   Sink
	staged StagedBatchSink // the sink's record entry, adapted when per-record
	plans  StagedPlanner   // non-nil when staged wants its records planned at staging
	bsink  BatchSink       // non-nil when sink wants batch-boundary callbacks
	ch     chan *chunk
	ctr    shardCounters

	// Queue-stall episode state: overlapping Block-policy stalls from
	// concurrent producers coalesce into one journal episode — first
	// producer in publishes the start, last one out publishes the end
	// with the episode's duration. The counters are only touched after
	// the non-blocking send already failed, so the fast path pays
	// nothing.
	jr         journal.Emitter
	stallers   atomic.Int64
	stallStart atomic.Int64
	stallCause atomic.Uint64
}

// noteStallStart opens (or joins) a stall episode on the shard.
func (sh *shard) noteStallStart(queueCap int) {
	if sh.jr.J == nil {
		return
	}
	if sh.stallers.Add(1) == 1 {
		cause := sh.jr.NewCause()
		sh.stallCause.Store(cause)
		sh.stallStart.Store(obs.Nanotime())
		sh.jr.Emit(journal.EvStallStart, journal.SevWarn, cause, uint64(queueCap), 0, 0)
	}
}

// noteStallEnd leaves the episode, closing it if this producer was the
// last one blocked. Start/cause reads race benignly with a brand-new
// episode only when a fresh stall begins in the same instant; the
// rendered duration is still that of a real contiguous blocked span.
func (sh *shard) noteStallEnd() {
	if sh.jr.J == nil {
		return
	}
	if sh.stallers.Add(-1) == 0 {
		dur := obs.Nanotime() - sh.stallStart.Load()
		sh.jr.Emit(journal.EvStallEnd, journal.SevInfo, sh.stallCause.Load(), uint64(dur), 0, 0)
	}
}

// Engine fans reports out to per-shard worker goroutines.
type Engine struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	// mu orders channel sends against Close's channel close; closed is
	// atomic so Submit's fast path can check it without the lock.
	mu     sync.RWMutex
	closed atomic.Bool

	firstErr atomic.Pointer[error]
	pool     sync.Pool // *chunk
}

// New starts one worker goroutine per sink. Every sink must implement
// StagedBatchSink or StagedSink. The engine owns the sinks until Close
// returns: no other goroutine may touch them concurrently.
func New(sinks []Sink, cfg Config) (*Engine, error) {
	if len(sinks) == 0 {
		return nil, errors.New("engine: no sinks")
	}
	c := cfg.withDefaults()
	e := &Engine{
		cfg:  c,
		pool: sync.Pool{New: func() any { return &chunk{} }},
	}
	for i, s := range sinks {
		if s == nil {
			return nil, errors.New("engine: nil sink")
		}
		shardScope := c.Obs.With(obs.L("shard", strconv.Itoa(i)))
		sh := &shard{
			sink: s,
			ch:   make(chan *chunk, c.QueueDepth),
			ctr:  newShardCounters(shardScope),
			jr:   journal.Emitter{J: c.Journal, Comp: journal.CompEngine, Collector: int16(i)},
		}
		switch k := s.(type) {
		case StagedBatchSink:
			sh.staged = k
			sh.plans, _ = s.(StagedPlanner)
		case StagedSink:
			sh.staged = perRecord{k}
		default:
			return nil, fmt.Errorf("engine: sink %d takes no staged records (implement StagedBatchSink or StagedSink)", i)
		}
		sh.bsink, _ = s.(BatchSink)
		// Queue depth is read straight off the channel at exposition
		// time — zero hot-path cost.
		ch := sh.ch
		shardScope.GaugeFunc("dta_engine_queue_depth", "Chunks currently buffered in the shard queue.",
			func() float64 { return float64(len(ch)) })
		e.shards = append(e.shards, sh)
	}
	for _, sh := range e.shards {
		e.wg.Add(1)
		go e.run(sh)
	}
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// nextRec extends ck.recs by one record slot and returns it. Capacity is
// reserved for the full chunk up front (and then recycled through the
// pool), so steady-state staging never re-allocates — incremental append
// growth would churn the heap badly enough under deep queues to defeat
// the pool via GC clearing.
func (e *Engine) nextRec(ck *chunk) *wire.StagedReport {
	n := len(ck.recs)
	if n < cap(ck.recs) {
		ck.recs = ck.recs[:n+1]
	} else {
		grown := make([]wire.StagedReport, n+1, max(e.cfg.ChunkFrames, n+1))
		copy(grown, ck.recs)
		ck.recs = grown
	}
	return &ck.recs[n]
}

// stage appends a staged copy of r to ck and, when the shard's sink
// plans, the record's plan beside it.
func (e *Engine) stage(sh *shard, ck *chunk, r *wire.Report) {
	rec := e.nextRec(ck)
	rec.Stage(r)
	if sh.plans != nil {
		sh.plans.PlanStaged(rec, e.planOf(ck))
	}
}

// planOf returns ck's plan, with room for a full chunk reserved before
// its first entry (like nextRec's: no growth in the steady state).
func (e *Engine) planOf(ck *chunk) *wire.ChunkPlan {
	if len(ck.plan.Recs) == 0 {
		ck.plan.Reserve(e.cfg.ChunkFrames)
	}
	return &ck.plan
}

// restage appends a copy of src's last record, and of its plan if it has
// one, to ck: the other legs of a fan-out whose first leg staged into src.
func (e *Engine) restage(ck, src *chunk) {
	*e.nextRec(ck) = src.recs[len(src.recs)-1]
	if last := len(src.plan.Recs) - 1; last >= 0 {
		h := src.plan.Recs[last]
		e.planOf(ck).Append(h.Prim, h.Csum, src.plan.SlotsOf(last))
	}
}

// handleInto appends a trace handle parallel to nextRec's record,
// with the same up-front capacity reservation so steady-state traced
// staging never re-allocates.
func handleInto(trcs []trace.Handle, h trace.Handle, chunkFrames int) []trace.Handle {
	n := len(trcs)
	if n < cap(trcs) {
		trcs = trcs[:n+1]
	} else {
		grown := make([]trace.Handle, n+1, max(chunkFrames, n+1))
		copy(grown, trcs)
		trcs = grown
	}
	trcs[n] = h
	return trcs
}

// send hands a chunk to the shard worker, applying the backpressure
// policy. It consumes ck (requeued to the pool on drop or ErrClosed).
func (e *Engine) send(sh *shard, ck *chunk) error {
	reports := uint64(len(ck.recs))
	// The read lock pins the channel open: Close takes the write lock
	// before closing channels, so a send in flight here cannot panic.
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		for i := range ck.trcs {
			ck.trcs[i].Abort()
		}
		e.pool.Put(ck)
		return ErrClosed
	}
	// Stamp the enqueue stage before the channel send: once the worker
	// owns the chunk the producer must not touch its trace handles (the
	// worker releases them), so any Block-policy wait below shows up in
	// the enqueue→dequeue gap with the stall flag naming the cause.
	for i := range ck.trcs {
		ck.trcs[i].Stamp(trace.StEnqueue)
	}
	if e.cfg.Policy == Drop {
		select {
		case sh.ch <- ck:
			sh.ctr.enqueued.Add(reports)
		default:
			// Shed: these reports have no end-to-end latency to
			// attribute, so their traces are discarded unpublished.
			for i := range ck.trcs {
				ck.trcs[i].Abort()
			}
			e.pool.Put(ck)
			sh.ctr.dropped.Add(reports)
		}
		return nil
	}
	// Block policy: try without blocking first so a full queue is
	// visible as a stall count — the backpressure signal the flat
	// shard-scaling investigation needs (a shard whose producers stall
	// is queue-bound; one that never stalls is worker- or CPU-bound).
	select {
	case sh.ch <- ck:
	default:
		sh.ctr.stalls.Inc()
		for i := range ck.trcs {
			ck.trcs[i].Flag(trace.FStall)
		}
		sh.noteStallStart(cap(sh.ch))
		sh.ch <- ck
		sh.noteStallEnd()
	}
	sh.ctr.enqueued.Add(reports)
	return nil
}

// Submitter stages reports into per-shard chunks before queueing them,
// amortising queue synchronisation across ChunkFrames reports. It is
// NOT goroutine-safe: give each producer goroutine its own Submitter,
// and Flush it before relying on Drain (staged reports are invisible to
// the engine until flushed; Close discards them).
type Submitter struct {
	e       *Engine
	pending []*chunk // lazily allocated, one per shard
	// coupled keeps the staged set all-or-nothing across shards: a full
	// chunk does not queue itself, it marks the submitter full, and the
	// owner queues EVERY shard's staged chunk with a Flush once it is Full.
	// HA engines need this: a replicated report is staged on all its
	// owners in one fan-out, and resync watermark fences are only exact
	// if no fan-out can be half-visible — one owner's copy queued while
	// another's is still staged (see HACluster.fenceMu). That is also why
	// the flush cannot run from inside the submission that filled the
	// chunk: that submission is one leg of a fan-out whose other legs are
	// not staged yet.
	coupled bool
	full    bool
	// smp is this producer's trace candidate filter: caller-local like
	// the Submitter itself, so the sampled-out path costs no shared
	// cache traffic.
	smp trace.Sampler
}

// SetCoupled switches the submitter to coupled (all-or-nothing) chunk
// flushing across shards: the caller must then check Full, and Flush,
// after each complete fan-out.
func (s *Submitter) SetCoupled(v bool) { s.coupled = v }

// Full reports whether a submission since the last Flush filled a chunk
// (coupled submitters only; otherwise full chunks queue themselves). The
// owner then calls Flush — between fan-outs, never inside one.
func (s *Submitter) Full() bool { return s.full }

// Submitter returns a new producer handle.
func (e *Engine) Submitter() *Submitter {
	return &Submitter{e: e, pending: make([]*chunk, len(e.shards))}
}

// stagedChunk returns shard's pending chunk, materialising it from the
// pool on first use, behind the checks every submission makes first.
func (s *Submitter) stagedChunk(shardIdx int) (*chunk, error) {
	if shardIdx < 0 || shardIdx >= len(s.pending) {
		return nil, fmt.Errorf("engine: shard %d out of range [0,%d)", shardIdx, len(s.pending))
	}
	if s.e.closed.Load() {
		return nil, ErrClosed
	}
	ck := s.pending[shardIdx]
	if ck == nil {
		ck = s.e.pool.Get().(*chunk)
		ck.reset()
		s.pending[shardIdx] = ck
	}
	return ck, nil
}

// noteStaged finishes staging one record on ck: its trace handle, when
// tracing, and the chunk's clock.
func (s *Submitter) noteStaged(ck *chunk, nowNs uint64) {
	if tw := s.e.cfg.Trace; tw != nil {
		h := tw.Begin(&s.smp)
		h.Stamp(trace.StSubmit)
		ck.trcs = handleInto(ck.trcs, h, s.e.cfg.ChunkFrames)
	}
	if nowNs > ck.nowNs {
		ck.nowNs = nowNs
	}
}

// queueIfFull queues shard's staged chunk once it holds ChunkFrames
// reports (coupled submitters only mark themselves full).
func (s *Submitter) queueIfFull(shardIdx int, ck *chunk) error {
	if len(ck.recs) < s.e.cfg.ChunkFrames {
		return nil
	}
	if s.coupled {
		s.full = true
		return nil
	}
	s.pending[shardIdx] = nil
	return s.e.send(s.e.shards[shardIdx], ck)
}

// SubmitReport stages a copy of r into shard's staged chunk — no heap
// allocation — and, when the shard's sink is a StagedPlanner, plans it
// there and then; the chunk is queued once it holds ChunkFrames reports.
func (s *Submitter) SubmitReport(shardIdx int, r *wire.Report, nowNs uint64) error {
	ck, err := s.stagedChunk(shardIdx)
	if err != nil {
		return err
	}
	s.e.stage(s.e.shards[shardIdx], ck, r)
	s.noteStaged(ck, nowNs)
	return s.queueIfFull(shardIdx, ck)
}

// SubmitReportFan is SubmitReport of one report to several shards — a
// replicated fan-out — for the staging price of one: r is staged and
// planned on shards[0], and the record and its plan are copied into the
// other shards' chunks. The shards must be distinct and their sinks must
// plan alike (the caller's guarantee: replicas of one deployment).
// nows[i] is shards[i]'s clock. No chunk is queued before every copy is
// staged.
func (s *Submitter) SubmitReportFan(shards []int, nows []uint64, r *wire.Report) error {
	var first *chunk
	for i, shardIdx := range shards {
		ck, err := s.stagedChunk(shardIdx)
		if err != nil {
			return err
		}
		if first == nil {
			s.e.stage(s.e.shards[shardIdx], ck, r)
			first = ck
		} else {
			s.e.restage(ck, first)
		}
		s.noteStaged(ck, nows[i])
	}
	for _, shardIdx := range shards {
		if err := s.queueIfFull(shardIdx, s.pending[shardIdx]); err != nil {
			return err
		}
	}
	return nil
}

// Flush queues every non-empty staged chunk.
func (s *Submitter) Flush() error {
	s.full = false
	for i, ck := range s.pending {
		if ck == nil || len(ck.recs) == 0 {
			continue
		}
		s.pending[i] = nil
		if err := s.e.send(s.e.shards[i], ck); err != nil {
			return err
		}
	}
	return nil
}

// Drain blocks until every report queued before the call has been
// processed and every shard's sink has been flushed at nowNs (or the
// latest report timestamp, whichever is later). Producer-staged chunks
// are not covered: Flush Submitters first. The engine keeps accepting
// reports afterwards.
func (e *Engine) Drain(nowNs uint64) error {
	e.mu.RLock()
	if e.closed.Load() {
		e.mu.RUnlock()
		return ErrClosed
	}
	done := make([]chan struct{}, len(e.shards))
	for i, sh := range e.shards {
		done[i] = make(chan struct{})
		// Barriers always block: they must never be shed, and FIFO
		// ordering guarantees all earlier reports finish first.
		sh.ch <- &chunk{nowNs: nowNs, drain: done[i]}
	}
	e.mu.RUnlock()
	for _, ch := range done {
		<-ch
	}
	return e.Err()
}

// Close stops the engine: subsequent submissions and Drain fail with
// ErrClosed, queued chunks are processed, sinks get a final flush, and
// all workers exit before Close returns. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		e.wg.Wait()
		return e.Err()
	}
	e.closed.Store(true)
	for _, sh := range e.shards {
		close(sh.ch)
	}
	e.mu.Unlock()
	e.wg.Wait()
	return e.Err()
}

// Closed reports whether Close has been called.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Err returns the first sink error the engine observed, if any.
func (e *Engine) Err() error {
	if p := e.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// ShardStats snapshots shard i's counters.
func (e *Engine) ShardStats(i int) Stats { return e.shards[i].ctr.snapshot() }

// Stats sums counters across shards.
func (e *Engine) Stats() Stats {
	var total Stats
	for i := range e.shards {
		total.Add(e.ShardStats(i))
	}
	return total
}

func (e *Engine) recordErr(err error) {
	e.firstErr.CompareAndSwap(nil, &err)
}

// run is the per-shard worker: batched dequeue, in-order processing,
// flush-on-barrier, final flush on Close.
func (e *Engine) run(sh *shard) {
	defer e.wg.Done()
	batch := make([]*chunk, 0, e.cfg.Batch)
	var lastNow uint64
	// pendingDrains holds barrier acks deferred to the end of the
	// dequeue batch: BatchEnd and then Settle must run before a Drain
	// caller is released, so Drain is a true quiesce point (the sink's
	// batch-granular state — e.g. a WAL's group commit — is settled when
	// Drain returns).
	var pendingDrains []chan struct{}

	flush := func(nowNs uint64) {
		if nowNs > lastNow {
			lastNow = nowNs
		}
		if err := sh.sink.Flush(lastNow); err != nil {
			sh.ctr.errors.Add(1)
			e.recordErr(err)
		}
		sh.ctr.flushes.Add(1)
	}

	settle := func() {
		if sh.bsink == nil {
			return
		}
		if err := sh.bsink.Settle(); err != nil {
			sh.ctr.errors.Add(1)
			e.recordErr(err)
		}
	}

	process := func(ck *chunk) {
		if ck.nowNs > lastNow {
			lastNow = ck.nowNs
		}
		if ck.drain != nil {
			flush(ck.nowNs)
			pendingDrains = append(pendingDrains, ck.drain)
			return
		}
		// The chunk goes to the sink in one call. Traced records get
		// their dequeue stamp as the chunk is picked up and release the
		// data-side trace reference once the sink is done with it.
		for i := range ck.trcs {
			ck.trcs[i].Stamp(trace.StDequeue)
		}
		if failed, err := sh.staged.ProcessStagedBatch(ck.recs, ck.plan, ck.trcs, lastNow); failed > 0 {
			sh.ctr.errors.Add(uint64(failed))
			e.recordErr(err)
		}
		for i := range ck.trcs {
			ck.trcs[i].Finish()
		}
		sh.ctr.processed.Add(uint64(len(ck.recs)))
		e.pool.Put(ck)
	}

	for {
		ck, ok := <-sh.ch
		if !ok {
			flush(lastNow)
			settle()
			return
		}
		// Opportunistically fill the batch without blocking.
		batch = append(batch[:0], ck)
		closed := false
	fill:
		for len(batch) < e.cfg.Batch {
			select {
			case next, open := <-sh.ch:
				if !open {
					closed = true
					break fill
				}
				batch = append(batch, next)
			default:
				break fill
			}
		}
		sh.ctr.batches.Add(1)
		// Span the whole batch (not per report): two clock reads
		// amortised over up to Batch×ChunkFrames reports, and the
		// histogram's sum is exactly the worker's busy time — the
		// numerator of the per-shard utilization report.
		span := obs.Start(sh.ctr.batchNs)
		for _, ck := range batch {
			process(ck)
		}
		if sh.bsink != nil {
			if err := sh.bsink.BatchEnd(lastNow); err != nil {
				sh.ctr.errors.Add(1)
				e.recordErr(err)
			}
		}
		span.End()
		if len(pendingDrains) > 0 {
			// Off the busy-time span: this is the worker waiting for the
			// sink's side work on a Drain caller's behalf, not working.
			settle()
			for _, d := range pendingDrains {
				close(d)
			}
			pendingDrains = pendingDrains[:0]
		}
		if closed {
			flush(lastNow)
			settle()
			return
		}
	}
}
