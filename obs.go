package dta

import (
	"net/http"
	"strconv"
	"sync"

	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
)

// ObsRegistry is a deployment's self-telemetry registry: every layer —
// engine shards, translator primitives, RDMA crafting, the WAL writer,
// HA health — registers its counters, gauges and latency histograms
// here, all reading the same atomic cells the Stats snapshots read, so
// the two views can never disagree. See internal/obs for the metric
// primitives and the exposition formats.
//
// The design constraint is the paper's own: measurement that perturbs
// the stream is worthless. Counters are padded (or striped) atomics,
// histograms are fixed log2 buckets, spans time only the reports the
// trace sampler drew — the instrumented ingest path stays
// allocation-free and within a few percent of the uninstrumented one
// (pinned by tests).
type ObsRegistry = obs.Registry

// ObsMux mounts the registry's HTTP surface on a fresh mux: Prometheus
// text at /metrics, expvar at /debug/vars, and the full pprof suite at
// /debug/pprof/. Nil-safe (a nil registry serves empty metrics).
//
//	srv := &http.Server{Addr: ":9090", Handler: dta.ObsMux(sys.Metrics())}
//	go srv.ListenAndServe()
func ObsMux(r *ObsRegistry) *http.ServeMux { return obs.Mux(r) }

// EventJournal is the control-plane flight recorder: a bounded lock-free
// ring of structured events (failovers, resyncs, WAL rotations, crash
// recoveries, queue stalls) with causal linkage. See internal/obs/journal.
type EventJournal = journal.Journal

// TracePipeline is the data-plane trace pipeline: sampled end-to-end
// report traces (submit → queue → translate → emit → WAL → fsync →
// durable ack) with tail-based retention of outliers — slow, degraded,
// resync-window and queue-stalled reports are always kept, plus a
// head-sampled baseline. See internal/obs/trace.
type TracePipeline = trace.Tracer

// HealthEvaluator runs SLO rules over a registry's snapshot deltas; its
// verdict backs /healthz. See internal/obs's DefaultHealthRules.
type HealthEvaluator = obs.HealthEvaluator

// HealthStatus is one full health evaluation (the /healthz payload).
type HealthStatus = obs.HealthStatus

// telemetry is a deployment's self-telemetry bundle. System and
// HACluster embed it by value, so its accessors are theirs and the hot
// path's trc read stays one load deep. A cluster's members share its
// registry (each under a collector="i" scope), journal and tracer.
// DisableTelemetry leaves all three nil; every consumer is nil-safe.
type telemetry struct {
	// reg is the registry every layer registers into.
	reg *obs.Registry
	// jr is the flight recorder control-plane events go to.
	jr *journal.Journal
	// trc is the data-plane trace pipeline: sampled end-to-end report
	// traces (submit → queue → translate → emit → WAL → fsync → ack)
	// with tail-based retention of outliers. Begin on nil is a no-op.
	trc *trace.Tracer
	// eval is the default /healthz evaluator over reg, built on first use.
	evalOnce sync.Once
	eval     *obs.HealthEvaluator
}

// newTelemetry builds a deployment's telemetry, or none with
// Options.DisableTelemetry.
func newTelemetry(opts Options) telemetry {
	if opts.DisableTelemetry {
		return telemetry{}
	}
	return telemetry{reg: obs.NewRegistry(), jr: journal.New(journal.DefaultSize), trc: trace.New(trace.Config{})}
}

// member is collector id's share of the deployment's telemetry, and the
// scope its layers register under: the registry root for a standalone
// system (id -1), collector="id" for a cluster member.
func (t *telemetry) member(id int16) (telemetry, *obs.Scope) {
	sc := t.reg.Scope()
	if id >= 0 {
		sc = t.reg.Scope(obs.L("collector", strconv.Itoa(int(id))))
	}
	return telemetry{reg: t.reg, jr: t.jr, trc: t.trc}, sc
}

// Metrics returns the deployment's telemetry registry (nil when Options.
// DisableTelemetry was set); a cluster's members share it, their series
// told apart by a collector="i" label. Serve it with ObsMux, scrape it
// with WritePrometheus, or poll it in-process with Snapshot.
func (t *telemetry) Metrics() *ObsRegistry { return t.reg }

// Tracer returns the deployment's data-plane trace pipeline (nil when
// Options.DisableTelemetry was set), shared by a cluster's members.
// Serve it with ObsMux at /debug/traces, render it with dtastat
// -traces, or poll Since in-process.
func (t *telemetry) Tracer() *TracePipeline { return t.trc }

// Journal returns the deployment's flight recorder (nil when Options.
// DisableTelemetry was set): a cluster's members and its HA control
// plane (failover and resync chains) emit into it under their collector
// labels. Serve it with ObsMux, tail it with dtastat -events, or poll
// Since in-process.
func (t *telemetry) Journal() *EventJournal { return t.jr }

// HealthEval returns the deployment's /healthz evaluator (default rules
// over default thresholds), built once on first use. Call Eval for an
// in-process verdict — dtaload -verify scenarios assert on it directly.
// On an HACluster the rules include the dta_ha_* availability series,
// so the verdict flips unhealthy while replicas are down or writes
// degrade. Nil-safe with telemetry disabled: it always reads healthy.
func (t *telemetry) HealthEval() *HealthEvaluator {
	t.evalOnce.Do(func() { t.eval = obs.NewHealthEvaluator(t.reg) })
	return t.eval
}

// ObsMux mounts the deployment's full observability surface on a fresh
// mux: everything the package-level ObsMux serves, plus the flight
// recorder at /debug/events (cursor protocol: ?since=<seq>), data-plane
// traces at /debug/traces (same cursor protocol) and the health verdict
// at /healthz (HTTP 503 with per-rule reasons when unhealthy).
func (t *telemetry) ObsMux() *http.ServeMux {
	return obs.Mux(t.reg,
		obs.Endpoint{Path: "/debug/events", Handler: journal.Handler(t.jr)},
		obs.Endpoint{Path: "/debug/traces", Handler: trace.Handler(t.trc)},
		obs.Endpoint{Path: "/healthz", Handler: obs.HealthHandler(t.HealthEval())})
}
