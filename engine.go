package dta

import (
	"errors"

	"dta/internal/engine"
	"dta/internal/obs/trace"
	"dta/internal/wire"
)

// EngineConfig tunes the asynchronous ingest engine. Zero fields take
// the defaults given below. The engine's metrics, queue-stall events and
// traces always go to the owning deployment's registry, journal and
// tracer.
type EngineConfig struct {
	// QueueDepth bounds each shard's chunk queue (0 = 256). Worst-case
	// buffered reports per shard ≈ QueueDepth × ChunkFrames.
	QueueDepth int
	// ChunkFrames is how many reports a Reporter stages per shard
	// before handing the chunk to the worker (0 = 32). 1 disables
	// producer-side batching.
	ChunkFrames int
	// Batch is the maximum chunk-dequeue batch per worker wakeup (0 = 16).
	Batch int
	// Policy selects EngineBlock (default) or EngineDrop backpressure.
	Policy EnginePolicy
}

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
// reporters: driving the owning System's synchronous reporters (or
// calling System.Flush) concurrently would race with the shard workers.
// Query and Stats methods are safe again once Drain or Close returns.
type Engine struct {
	inner   *engine.Engine
	cluster *Cluster   // nil unless attached to a Cluster
	hac     *HACluster // nil unless attached to an HACluster (replicated fan-out)
	systems []*System  // one per shard
}

// systemSink adapts one System's translator + collector chain to the
// engine's per-shard sink: chunks of staged records, the plan made as
// they were staged, flushes and the log's batch boundaries.
type systemSink struct{ s *System }

// PlanStaged is the staging side's entry (engine.StagedPlanner): address
// generation runs on the submitting goroutine, against the translator's
// immutable geometry, and the plan rides with the chunk.
func (k systemSink) PlanStaged(rec *wire.StagedReport, p *wire.ChunkPlan) {
	k.s.tr.PlanStaged(rec, p)
}

// ProcessStagedBatch is the shard worker's entry (engine.StagedBatchSink):
// the whole chunk reaches the translator in one call, so it can
// pre-touch every destination line before crafting the first packet.
func (k systemSink) ProcessStagedBatch(recs []wire.StagedReport, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error) {
	return k.s.tr.ProcessStagedBatch(recs, plan, trcs, nowNs)
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
	if len(systems) == 0 {
		return nil, errors.New("dta: engine over no collectors (construct the cluster with NewCluster)")
	}
	sinks := make([]engine.Sink, len(systems))
	for i, s := range systems {
		sinks[i] = systemSink{s}
	}
	// Engine metrics land in the owning deployment's registry at the
	// root scope: shard i is collector i (cluster engines) or the only
	// collector, so the shard="i" label the engine adds already
	// identifies the member — no collector label needed. Queue-stall
	// episodes and traces go to the deployment's journal and tracer,
	// which cluster members share, so systems[0]'s are the cluster's.
	ecfg := engine.Config{
		QueueDepth: cfg.QueueDepth, ChunkFrames: cfg.ChunkFrames, Batch: cfg.Batch, Policy: cfg.Policy,
		Obs: systems[0].reg.Scope(), Journal: systems[0].jr, Trace: systems[0].trc,
	}
	if hac != nil {
		// A replicated fan-out plans once for all its owners (Reporter.fan),
		// which is only right while every member plans alike — what
		// HACluster.attach admitted them on.
		for i, s := range systems[1:] {
			if err := checkMember(systems[0], s, i+1); err != nil {
				return nil, err
			}
		}
	}
	inner, err := engine.New(sinks, ecfg)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner, cluster: cluster, hac: hac, systems: systems}, nil
}

// Shards returns the number of shard workers.
func (e *Engine) Shards() int { return e.inner.Shards() }

// Drain blocks until every report queued before the call has been
// ingested and every shard's translator state has been flushed; the
// engine keeps accepting reports afterwards. Reports still staged in a
// reporter are not covered — Flush each reporter first. Queries
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

// closed reports whether Close has been called (an HACluster allows
// membership changes only once its attached engine is closed).
func (e *Engine) closed() bool { return e.inner.Closed() }

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
// value into per-shard chunks, each queued on its shard once it holds
// EngineConfig.ChunkFrames reports. Give each producer goroutine its
// own, and call its Flush before Drain so staged reports are queued.
func (e *Engine) Reporter(switchID uint32) *Reporter {
	sub := e.inner.Submitter()
	// HA fan-outs stage one report on several owner shards; the resync
	// watermark fence needs those copies to reach the shard queues
	// together (see HACluster.fenceMu).
	sub.SetCoupled(e.hac != nil)
	return &Reporter{switchID: switchID, systems: e.systems, cluster: e.cluster, hac: e.hac, sub: sub}
}
