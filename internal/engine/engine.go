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
	"slices"
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
// per dequeued view of a chunk, so the sink can overlap work across the
// view's records (the translator pre-touches every destination line
// before crafting the first packet).
type StagedBatchSink interface {
	// ProcessStagedBatch ingests in order the records of recs that idx
	// names (wire.ViewLen), which other shards' workers may read too.
	// plan.Recs[i] is what PlanStaged of the sink recs[i] was first staged
	// for made of it (zero if it is no StagedPlanner). trcs is a prefix of
	// the named records' trace handles, for downstream layers to stamp:
	// trcs[j] is the j-th's (invalid when sampled out) and trcs ends at
	// the view's last trace candidate. The worker keeps ownership and
	// releases the handles after the call. All are only read during the
	// call. A failing record does not stop the view: failed counts the
	// records whose processing returned an error, first is the earliest.
	ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error)
}

// StagedPlanner is the optional staging-side half of a StagedBatchSink:
// the part of a record's processing that needs nothing but the record
// and state fixed before the engine started. Submitters run it as they
// stage — on the producer's core, which is otherwise idle while the
// shard worker is the bottleneck — and the result rides with the chunk.
// A plan may carry all the worker needs of a record (the translator's
// carries slots, flags and operand), so the worker need not read the
// record, and its lines need not cross to the worker's core.
type StagedPlanner interface {
	// PlanStaged appends rec's plan to p. It is called from any number of
	// submitting goroutines at once, beside the worker's
	// ProcessStagedBatch, so it must not write anything but p.
	PlanStaged(rec *wire.StagedReport, p *wire.ChunkPlan)
}

// perRecord adapts a StagedSink to StagedBatchSink. The view's trace
// handle prefix stops here: a per-record sink has no way to take it. It
// plans nothing, so the records first staged for it carry zero entries.
type perRecord struct{ sink StagedSink }

func (a perRecord) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, _ []trace.Handle, nowNs uint64) (failed int, first error) {
	for j := range wire.ViewLen(recs, idx) {
		if err := a.sink.ProcessStaged(&recs[wire.ViewAt(idx, j)], nowNs); err != nil {
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
	// ChunkFrames bounds a shard's share of a Submitter's chunk, which is
	// staged once for all its shards and queued when one share reaches
	// ChunkFrames reports (0 = 32). 1 disables producer-side batching.
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
	// Submitters begin traces for their sampling candidates, the worker
	// stamps queue stages and hands the chunk's handles to the sink. A
	// sampled-out record carries no handle; it costs the sampler's
	// increment and branch, and nil one predicted branch.
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

// chunk is a Submitter's staged records, each staged and planned once
// for all the shards it goes to; each shard's worker reads its view of
// them in place, and the last view released pools the chunk.
type chunk struct {
	recs  []wire.StagedReport
	plan  wire.ChunkPlan // parallel to recs
	views []view         // one per shard
	refs  atomic.Int32   // views queued and not yet released
}

// view is a queue entry: a shard's share of a chunk, or a drain barrier
// (non-nil drain, no chunk).
type view struct {
	ck    *chunk
	idx   []uint32       // the shard's records in ck.recs, in staging order
	trcs  []trace.Handle // their handles up to the last trace candidate
	nowNs uint64         // latest clock among them
	drain chan struct{}
}

func (c *chunk) reset() {
	c.recs = c.recs[:0]
	c.plan.Reset()
	for i := range c.views {
		v := &c.views[i]
		v.idx, v.trcs, v.nowNs = v.idx[:0], v.trcs[:0], 0
	}
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
	ch     chan *view
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
	e := &Engine{cfg: c}
	// A chunk has room for all it can hold from the start — ChunkFrames
	// records, plans, indexes and handles a shard — and is recycled
	// through the pool: append growth would churn the heap badly enough
	// under deep queues to defeat the pool via GC clearing.
	e.pool.New = func() any {
		n := c.ChunkFrames * len(sinks)
		ck := &chunk{recs: make([]wire.StagedReport, 0, n), views: make([]view, len(sinks))}
		ck.plan.Reserve(n)
		for i := range ck.views {
			ck.views[i] = view{ck: ck, idx: make([]uint32, 0, c.ChunkFrames), trcs: make([]trace.Handle, 0, c.ChunkFrames)}
		}
		return ck
	}
	for i, s := range sinks {
		if s == nil {
			return nil, errors.New("engine: nil sink")
		}
		shardScope := c.Obs.With(obs.L("shard", strconv.Itoa(i)))
		sh := &shard{
			sink: s,
			ch:   make(chan *view, c.QueueDepth),
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

// stage appends a staged copy of r to the Submitter's chunk, taken from
// the pool on first use, with sh's sink's plan of it (zero when it plans
// nothing), and returns its index.
func (s *Submitter) stage(sh *shard, r *wire.Report) uint32 {
	if s.ck == nil {
		s.ck = s.e.pool.Get().(*chunk)
		s.ck.reset()
	}
	ck := s.ck
	k := len(ck.recs)
	ck.recs = slices.Grow(ck.recs, 1)[:k+1]
	rec := &ck.recs[k]
	rec.Stage(r)
	if sh.plans != nil {
		sh.plans.PlanStaged(rec, &ck.plan)
	} else {
		ck.plan.Recs = append(ck.plan.Recs, 0)
	}
	return uint32(k)
}

// release drops one view's hold on ck: the last one pools it.
func (e *Engine) release(ck *chunk) {
	if ck.refs.Add(-1) == 0 {
		e.pool.Put(ck)
	}
}

// abort releases v unprocessed, its trace handles released unpublished.
func (e *Engine) abort(v *view) {
	for i := range v.trcs {
		v.trcs[i].Abort()
	}
	e.release(v.ck)
}

// send hands a view to the shard worker, applying the backpressure
// policy. It consumes v (released unprocessed on drop or ErrClosed).
func (e *Engine) send(sh *shard, v *view) error {
	reports := uint64(len(v.idx))
	// The read lock pins the channel open: Close takes the write lock
	// before closing channels, so a send in flight here cannot panic.
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		e.abort(v)
		return ErrClosed
	}
	// Stamp the enqueue stage before the channel send: once the worker
	// owns the view the producer must not touch its trace handles (the
	// worker releases them), so any Block-policy wait below shows up in
	// the enqueue→dequeue gap with the stall flag naming the cause.
	for i := range v.trcs {
		v.trcs[i].Stamp(trace.StEnqueue)
	}
	if e.cfg.Policy == Drop {
		select {
		case sh.ch <- v:
			sh.ctr.enqueued.Add(reports)
		default:
			// Shed: these reports have no end-to-end latency to
			// attribute, so their traces are discarded unpublished.
			e.abort(v)
			sh.ctr.dropped.Add(reports)
		}
		return nil
	}
	// Block policy: try without blocking first so a full queue is
	// visible as a stall count — the backpressure signal the flat
	// shard-scaling investigation needs (a shard whose producers stall
	// is queue-bound; one that never stalls is worker- or CPU-bound).
	select {
	case sh.ch <- v:
	default:
		sh.ctr.stalls.Inc()
		for i := range v.trcs {
			v.trcs[i].Flag(trace.FStall)
		}
		sh.noteStallStart(cap(sh.ch))
		sh.ch <- v
		sh.noteStallEnd()
	}
	sh.ctr.enqueued.Add(reports)
	return nil
}

// Submitter stages reports into a chunk before queueing it, amortising
// queue synchronisation across up to ChunkFrames reports per shard. It
// is NOT goroutine-safe: give each producer goroutine its own
// Submitter, and Flush it before relying on Drain (staged reports are
// invisible to the engine until flushed; Close discards them).
type Submitter struct {
	e  *Engine
	ck *chunk // staged; nil until the first submission after a queue
	// trc is the engine's tracer and smp this producer's trace candidate
	// filter: caller-local like the Submitter itself, so the sampled-out
	// path reads no engine field and costs no shared cache traffic.
	trc *trace.Tracer
	smp trace.Sampler
}

// Submitter returns a new producer handle.
func (e *Engine) Submitter() *Submitter {
	return &Submitter{e: e, trc: e.cfg.Trace}
}

// check is what every submission to shardIdx checks first.
func (s *Submitter) check(shardIdx int) error {
	if uint(shardIdx) >= uint(len(s.e.shards)) {
		return fmt.Errorf("engine: shard %d out of range [0,%d)", shardIdx, len(s.e.shards))
	}
	if s.e.closed.Load() {
		_ = s.Flush() // ErrClosed: it discards what is staged
		return ErrClosed
	}
	return nil
}

// add appends record k of the staged chunk to shardIdx's view, at clock
// nowNs, and queues the chunk once that view holds ChunkFrames reports.
func (s *Submitter) add(shardIdx int, k uint32, nowNs uint64) error {
	v := &s.ck.views[shardIdx]
	v.idx = append(v.idx, k)
	if s.noteStaged(v, nowNs) {
		s.traceLast(v)
	}
	if len(v.idx) < s.e.cfg.ChunkFrames {
		return nil
	}
	return s.queue()
}

// noteStaged advances v's clock and reports whether its last record is
// a trace candidate, for the caller to traceLast. It inlines, so a
// sampled-out record pays the sampler's increment and branch and no call.
func (s *Submitter) noteStaged(v *view, nowNs uint64) bool {
	if nowNs > v.nowNs {
		v.nowNs = nowNs
	}
	return s.trc != nil && s.trc.Candidate(&s.smp)
}

// traceLast begins the trace of v's last record, a sampling candidate,
// and extends v's handle prefix to it. The array comes from the pool
// and still holds its previous use's released handles, so the gap of
// sampled-out records since the last candidate is cleared.
//
//go:noinline
func (s *Submitter) traceLast(v *view) {
	h := s.trc.BeginCandidate()
	h.Stamp(trace.StSubmit)
	i, n := len(v.idx)-1, len(v.trcs)
	v.trcs = slices.Grow(v.trcs, i+1-n)[:i+1]
	clear(v.trcs[n:i])
	v.trcs[i] = h
}

// queue sends each non-empty view of the staged chunk to its shard, and
// touches the chunk no more after the last send: a worker may pool it.
func (s *Submitter) queue() error {
	ck := s.ck
	s.ck = nil
	var n int32
	for i := range ck.views {
		if len(ck.views[i].idx) > 0 {
			n++
		}
	}
	ck.refs.Store(n)
	var err error
	for i := 0; n > 0; i++ {
		if v := &ck.views[i]; len(v.idx) > 0 {
			n--
			if serr := s.e.send(s.e.shards[i], v); err == nil {
				err = serr
			}
		}
	}
	return err
}

// SubmitReport stages a copy of r for shardIdx — no heap allocation —
// and, when the shard's sink is a StagedPlanner, plans it there and then.
func (s *Submitter) SubmitReport(shardIdx int, r *wire.Report, nowNs uint64) error {
	if err := s.check(shardIdx); err != nil {
		return err
	}
	return s.add(shardIdx, s.stage(s.e.shards[shardIdx], r), nowNs)
}

// SubmitReportFan is SubmitReport of one report to several shards — a
// replicated fan-out — for the staging price of one: r is staged and
// planned once, by shards[0]'s sink, for all their views. The shards
// must be distinct and their sinks must plan alike (replicas of one
// deployment). nows[i] is shards[i]'s clock. An Append is stamped with
// the set of shards it goes to (wire.StagedReport.SetRecipients): shard
// i is collector i. Views fill as under one SubmitReport per shard: a
// leg that fills its view queues the chunk, and r is staged again for
// the legs after it.
func (s *Submitter) SubmitReportFan(shards []int, nows []uint64, r *wire.Report) error {
	var ck *chunk
	var k uint32
	for i, shardIdx := range shards {
		if err := s.check(shardIdx); err != nil {
			return err
		}
		if ck == nil {
			k = s.stage(s.e.shards[shardIdx], r)
			s.ck.recs[k].SetRecipients(shards)
		}
		if err := s.add(shardIdx, k, nows[i]); err != nil {
			return err
		}
		ck = s.ck // nil once add queued it
	}
	return nil
}

// Flush queues the staged chunk, if it holds anything. Once the engine
// is closed it discards it and returns ErrClosed.
func (s *Submitter) Flush() error {
	if s.ck == nil || len(s.ck.recs) == 0 {
		return nil
	}
	return s.queue()
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
		sh.ch <- &view{nowNs: nowNs, drain: done[i]}
	}
	e.mu.RUnlock()
	for _, ch := range done {
		<-ch
	}
	return e.Err()
}

// Close stops the engine: subsequent submissions and Drain fail with
// ErrClosed, queued chunks are processed, sinks get a final flush, and
// all workers exit before Close returns. Close is idempotent. Reports a
// Submitter has not flushed are discarded, and their trace slots stay
// held until that Submitter's next call, which fails with ErrClosed.
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
	batch := make([]*view, 0, e.cfg.Batch)
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

	process := func(v *view) {
		if v.nowNs > lastNow {
			lastNow = v.nowNs
		}
		if v.drain != nil {
			flush(v.nowNs)
			pendingDrains = append(pendingDrains, v.drain)
			return
		}
		// The view goes to the sink in one call, nil if it is the whole
		// chunk (always, on one shard). Traced records get their dequeue
		// stamp as the view is picked up and release the data-side trace
		// reference once the sink is done with it.
		for i := range v.trcs {
			v.trcs[i].Stamp(trace.StDequeue)
		}
		ck, idx := v.ck, v.idx
		if len(idx) == len(ck.recs) {
			idx = nil
		}
		if failed, err := sh.staged.ProcessStagedBatch(ck.recs, idx, ck.plan, v.trcs, lastNow); failed > 0 {
			sh.ctr.errors.Add(uint64(failed))
			e.recordErr(err)
		}
		for i := range v.trcs {
			v.trcs[i].Finish()
		}
		sh.ctr.processed.Add(uint64(len(v.idx)))
		e.release(ck)
	}

	defer func() { flush(lastNow); settle() }()
	for {
		v, ok := <-sh.ch
		if !ok {
			return
		}
		// Opportunistically fill the batch without blocking.
		batch = append(batch[:0], v)
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
		for _, v := range batch {
			process(v)
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
			return
		}
	}
}
