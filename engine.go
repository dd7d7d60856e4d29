package dta

import (
	"fmt"

	"dta/internal/engine"
	"dta/internal/ha"
	"dta/internal/obs/trace"
	"dta/internal/wire"
)

// EngineConfig tunes the asynchronous ingest engine. See
// internal/engine for field semantics.
type EngineConfig = engine.Config

// EngineStats snapshots engine counters.
type EngineStats = engine.Stats

// EnginePolicy selects the backpressure behaviour of a full shard queue.
type EnginePolicy = engine.Policy

const (
	// EngineBlock makes submissions wait for queue space (lossless).
	EngineBlock = engine.Block
	// EngineDrop sheds reports with a counter, mirroring the
	// translator rate limiter's semantics.
	EngineDrop = engine.Drop
)

// ErrEngineClosed is returned by submissions after Engine.Close.
var ErrEngineClosed = engine.ErrClosed

// Engine is an asynchronous, sharded ingest pipeline: each collector's
// translator+host sits behind a dedicated worker goroutine with a
// bounded report queue, so reporters on any number of goroutines submit
// concurrently while collectors ingest in parallel.
//
// While an Engine is attached, all reports must flow through its
// AsyncReporters: driving the owning System's synchronous reporters (or
// calling System.Flush) concurrently would race with the shard workers.
// Query and Stats methods are safe again once Drain or Close returns.
type Engine struct {
	inner   *engine.Engine
	cluster *Cluster   // nil unless attached to a Cluster
	hac     *HACluster // nil unless attached to an HACluster (replicated fan-out)
	systems []*System  // one per shard
}

// systemSink adapts one System's lossy-link + translator + collector
// chain to the engine's per-shard sink: chunks of staged records, the
// plan made as they were staged, flushes and the log's batch boundaries.
type systemSink struct{ s *System }

// PlanStaged is the staging side's entry (engine.StagedPlanner): address
// generation runs on the submitting goroutine, against the translator's
// immutable geometry, and the plan rides with the chunk.
func (k systemSink) PlanStaged(rec *wire.StagedReport, p *wire.ChunkPlan) {
	k.s.tr.PlanStaged(rec, p)
}

// ProcessStagedBatch is the shard worker's entry (engine.StagedBatchSink):
// the whole chunk reaches the translator in one call, so it can
// pre-touch every destination line before crafting the first packet. The
// lossy-link model still decides record by record; each run of surviving
// records goes down as one batch, with its slice of the plan and of the
// trace handles.
func (k systemSink) ProcessStagedBatch(recs []wire.StagedReport, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error) {
	s := k.s
	if s.link == nil {
		return s.tr.ProcessStagedBatch(recs, plan, trcs, nowNs)
	}
	run := func(from, to int) {
		if from == to {
			return
		}
		var h []trace.Handle
		if len(trcs) > 0 {
			h = trcs[from:to]
		}
		n, err := s.tr.ProcessStagedBatch(recs[from:to], plan.Slice(from, to), h, nowNs)
		if failed == 0 {
			first = err
		}
		failed += n
	}
	start := 0
	for i := range recs {
		if _, dropped := s.link.Send(nowNs, recs[i].FrameLen()); dropped {
			run(start, i) // best-effort: recs[i] is silently lost, like UDP
			start = i + 1
		}
	}
	run(start, len(recs))
	return failed, first
}

func (k systemSink) Flush(nowNs uint64) error { return k.s.flushAt(nowNs) }

// BatchEnd marks a worker dequeue-batch boundary: with a WAL attached
// under the every-batch sync policy this requests the commit that makes
// the batch's records durable — without waiting for it.
func (k systemSink) BatchEnd(nowNs uint64) error { return k.s.walCommitBatch() }

// Settle waits for the commits BatchEnd and Flush requested: the
// durability half of Engine.Drain and Engine.Close.
func (k systemSink) Settle() error { return k.s.walSettle() }

// Engine attaches a single-shard async ingest engine to this System.
func (s *System) Engine(cfg EngineConfig) (*Engine, error) {
	return newEngine([]*System{s}, nil, nil, cfg)
}

// Engine attaches an async ingest engine with one shard per collector.
func (c *Cluster) Engine(cfg EngineConfig) (*Engine, error) {
	return newEngine(c.systems, c, nil, cfg)
}

func newEngine(systems []*System, cluster *Cluster, hac *HACluster, cfg EngineConfig) (*Engine, error) {
	sinks := make([]engine.Sink, len(systems))
	for i, s := range systems {
		sinks[i] = systemSink{s}
	}
	if cfg.Obs == nil && len(systems) > 0 {
		// Engine metrics land in the owning deployment's registry at the
		// root scope: shard i is collector i (cluster engines) or the
		// only collector, so the shard="i" label the engine adds already
		// identifies the member — no collector label needed.
		cfg.Obs = systems[0].obsReg.Scope()
	}
	if cfg.Journal == nil && len(systems) > 0 {
		// Same default for the flight recorder: shards emit queue-stall
		// episodes into the owning deployment's journal (shared across
		// cluster members, so systems[0]'s is the cluster's).
		cfg.Journal = systems[0].jr
	}
	if cfg.Trace == nil && len(systems) > 0 {
		// Same default for the trace pipeline: submissions begin traces
		// against the owning deployment's tracer (shared across cluster
		// members, so systems[0]'s is the cluster's).
		cfg.Trace = systems[0].trc
	}
	if hac != nil {
		// A replicated fan-out plans once for all its owners (haFan),
		// which is only right while every member plans alike — what
		// HACluster.attach admitted them on.
		for i, s := range systems[1:] {
			if err := checkMember(systems[0], s, i+1); err != nil {
				return nil, err
			}
		}
	}
	inner, err := engine.New(sinks, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner, cluster: cluster, hac: hac, systems: systems}, nil
}

// Shards returns the number of shard workers.
func (e *Engine) Shards() int { return e.inner.Shards() }

// Drain blocks until every report queued before the call has been
// ingested and every shard's translator state has been flushed; the
// engine keeps accepting reports afterwards. Reports still staged in an
// AsyncReporter are not covered — Flush each reporter first. Queries
// observe all drained reports.
func (e *Engine) Drain() error {
	var now uint64
	for _, s := range e.systems {
		if n := s.Now(); n > now {
			now = n
		}
	}
	return e.inner.Drain(now)
}

// Close drains queued reports, flushes every shard and stops the
// workers; subsequent submissions fail with ErrEngineClosed.
func (e *Engine) Close() error { return e.inner.Close() }

// Closed reports whether Close has been called (an HACluster allows
// membership changes only once its attached engine is closed).
func (e *Engine) Closed() bool { return e.inner.Closed() }

// Err returns the first ingest error observed by any shard worker.
func (e *Engine) Err() error { return e.inner.Err() }

// Stats sums engine counters across shards.
func (e *Engine) Stats() EngineStats { return e.inner.Stats() }

// ShardStats snapshots per-shard engine counters.
func (e *Engine) ShardStats() []EngineStats {
	out := make([]EngineStats, e.inner.Shards())
	for i := range out {
		out[i] = e.inner.ShardStats(i)
	}
	return out
}

// Reporter attaches an async reporter switch: reports are staged by
// value (fixed-size struct + inline payload) in per-shard chunks, never
// serialised to a wire frame — the zero-allocation ingest path. The
// handle owns staged chunks, so it is NOT goroutine-safe: give each
// producer goroutine its own AsyncReporter (they are cheap). Call Flush
// before Drain so staged reports reach the shard queues.
func (e *Engine) Reporter(switchID uint32) *AsyncReporter {
	sub := e.inner.Submitter()
	if e.hac != nil {
		// HA fan-outs stage one report on several owner shards; the
		// resync watermark fence needs those copies to reach the shard
		// queues together (see HACluster.fenceMu).
		sub.SetCoupled(true)
	}
	return &AsyncReporter{
		eng:      e,
		sub:      sub,
		switchID: switchID,
	}
}

// AsyncReporter is a reporter handle that stages reports on the calling
// goroutine (reporter-side work is parallel across switches, as in the
// real system) into per-shard chunks that are queued on the owning
// shard every EngineConfig.ChunkFrames reports.
type AsyncReporter struct {
	eng      *Engine
	sub      *engine.Submitter
	switchID uint32

	// scratch is the staging report, reused across calls so only the
	// active sub-header is written per report (SubmitReport copies it out
	// before returning; stale sibling sub-headers are never read).
	scratch wire.Report
	// frame is SubmitFrame's decode target.
	frame wire.ParsedFrame
}

// routeKey is the key rep is routed by; an Append goes by its list
// instead.
func routeKey(rep *wire.Report) *Key {
	switch rep.Header.Primitive {
	case wire.PrimKeyIncrement:
		return &rep.KeyIncrement.Key
	case wire.PrimPostcarding:
		return &rep.Postcard.Key
	}
	return &rep.KeyWrite.Key
}

// submit validates rep and stages it on the shard that owns it — the
// way ClusterReporter routes, so sync and async ingestion agree on
// ownership — or, on an HACluster engine, on every live owner.
func (r *AsyncReporter) submit(rep *wire.Report) error {
	if err := rep.Validate(); err != nil {
		return err
	}
	if r.eng.hac != nil {
		return r.haFan(rep)
	}
	sh := 0
	if c := r.eng.cluster; c != nil {
		if rep.Header.Primitive == wire.PrimAppend {
			sh = c.OwnerOfList(rep.Append.ListID)
		} else {
			sh = c.Owner(*routeKey(rep))
		}
	}
	return r.sub.SubmitReport(sh, rep, r.eng.systems[sh].Now())
}

// haFan is the software form of the paper's multicast translation: the
// report is staged and planned once, and the staged record and its plan
// are copied into every live owner's chunk (members plan alike;
// newEngine checked). Down owners are skipped with a counter, never an
// error. No fence lock here: staging is producer-local (see
// HACluster.fenceMu).
func (r *AsyncReporter) haFan(rep *wire.Report) error {
	h := r.eng.hac
	var ob [ha.MaxReplicas]int
	var owners []int
	if rep.Header.Primitive == wire.PrimAppend {
		owners = h.ring.OwnersOfList(rep.Append.ListID, h.r, ob[:0])
	} else {
		owners = h.owners(routeKey(rep)[:], ob[:0])
	}
	// Skip set decided before the first submit — see HAReporter.fan for
	// why this ordering is load-bearing for the incremental-resync epoch
	// fence. unreachable covers both down flags and chaos-plane
	// reporter-link cuts.
	var live [ha.MaxReplicas]int
	var nows [ha.MaxReplicas]uint64
	n := 0
	for _, o := range owners {
		if !h.unreachable(o) {
			live[n], nows[n] = o, r.eng.systems[o].Now()
			n++
		}
	}
	if err := r.sub.SubmitReportFan(live[:n], nows[:n], rep); err != nil {
		return err
	}
	h.health.RecordWrite(n, len(owners))
	// Only now, with every owner's copy staged, may a full chunk go out,
	// and only as one event under the resync fence (Flush).
	if !r.sub.Full() {
		return nil
	}
	return r.Flush()
}

// Flush queues this reporter's staged chunks. Producers must call it
// (on their own goroutine) before the engine's Drain or Close covers
// their reports.
func (r *AsyncReporter) Flush() error {
	if h := r.eng.hac; h != nil {
		// This is where staged copies become visible to the engine: all
		// shards' chunks go out as one atomic event with respect to the
		// resync watermark fence — see HACluster.fenceMu.
		h.fenceMu.RLock()
		defer h.fenceMu.RUnlock()
	}
	return r.sub.Flush()
}

// SubmitFrame is the ingest edge for wire frames: it decodes one
// Ethernet/IPv4/UDP/DTA frame and submits the report it carries exactly
// as the typed methods would, so the engine carries staged records
// only. A frame not addressed to the DTA port returns ErrNotDTA.
func (r *AsyncReporter) SubmitFrame(frame []byte) error {
	if err := wire.DecodeFrame(frame, &r.frame); err != nil {
		return err
	}
	if !r.frame.IsDTA {
		return ErrNotDTA
	}
	return r.submit(&r.frame.Report)
}

// KeyWrite stores data under key with redundancy n via the owning
// shard (all R owning shards on an HACluster engine).
func (r *AsyncReporter) KeyWrite(key Key, data []byte, n int) error {
	rep := &r.scratch
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite}
	rep.KeyWrite = wire.KeyWrite{Redundancy: uint8(n), DataLen: uint16(len(data)), Key: key}
	rep.Data = data
	return r.submit(rep)
}

// Increment adds delta to key's counter with redundancy n.
func (r *AsyncReporter) Increment(key Key, delta uint64, n int) error {
	rep := &r.scratch
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement}
	rep.KeyIncrement = wire.KeyIncrement{Redundancy: uint8(n), Key: key, Delta: delta}
	rep.Data = nil
	return r.submit(rep)
}

// Postcard reports a hop observation for key (path tracing), carrying
// this reporter's switch ID as the hop value.
func (r *AsyncReporter) Postcard(key Key, hop, pathLen int) error {
	rep := &r.scratch
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding}
	rep.Postcard = wire.Postcard{Key: key, Hop: uint8(hop), PathLen: uint8(pathLen), Value: r.switchID}
	rep.Data = nil
	return r.submit(rep)
}

// Append adds data to the tail of list on the shard owning the list
// (all R owning shards on an HACluster engine).
func (r *AsyncReporter) Append(list uint32, data []byte) error {
	rep := &r.scratch
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimAppend}
	rep.Append = wire.Append{ListID: list, DataLen: uint16(len(data))}
	rep.Data = data
	return r.submit(rep)
}

// String aids debugging output in benchmarks and the dtaload CLI.
func (e *Engine) String() string {
	return fmt.Sprintf("dta.Engine{shards: %d}", e.Shards())
}
