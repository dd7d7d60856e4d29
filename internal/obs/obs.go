// Package obs is the pipeline's self-telemetry layer: a zero-allocation
// metrics registry (counters, gauges, log2 fixed-bucket latency
// histograms) plus lightweight per-stage span timing, threaded through
// every layer of the ingest pipeline — engine shard workers, translator
// primitive dispatch, RDMA crafting, HA fan-out, WAL flushing.
//
// The design constraint is the one the paper applies to the data plane
// itself: measurement that perturbs the stream is worthless. DTA's core
// claim is that the collector is the bottleneck of network-wide
// telemetry, so the collector's own instrumentation must not become a
// second bottleneck:
//
//   - Hot-path primitives never allocate. A Counter is one padded
//     atomic; a Histogram observation is three uncontended atomic adds;
//     a Span against a nil Histogram is one predictable branch and no
//     clock read.
//   - Every mutable cell is cache-line padded (64B) so two counters
//     owned by different shard workers never share a line — the same
//     de-sharing discipline the sharded ingest queues apply.
//   - Counters bumped by many producer goroutines at once (the HA
//     fan-out accounting) are striped across lines (ShardedCounter) and
//     summed at read time, so concurrent writers do not serialise on one
//     LOCK-prefixed cell.
//   - Per-report latency spans time only the reports the trace
//     pipeline drew at submit (internal/obs/trace, 1 in 1024 by
//     default): one draw decides a report's trace and its spans, so an
//     untraced report reads no clock for them. Spans vanish entirely —
//     including the clock reads — when telemetry is disabled (a nil
//     *Histogram makes Start/End no-ops).
//
// Registration happens at construction time (it allocates; the hot path
// only ever touches pre-resolved pointers). Every constructor is
// nil-receiver-safe: a nil *Scope returns working-but-unregistered
// primitives, which is how "telemetry off" keeps the stats structs
// (engine Stats, ha.Stats, wal.Stats) functional — they are views over
// these same cells, registered or not, so the numbers reported by the
// Go API and by the HTTP exposition can never disagree.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Label is one exposition dimension, rendered as key="value".
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{key, value} }

// Kind classifies a registered metric for exposition and snapshots.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// pad fills a Counter/Gauge out to one cache line so cells owned by
// different writer goroutines never false-share.
const cacheLine = 64

// Counter is a monotonically increasing cell: one atomic on its own
// cache line. Single-writer or low-contention multi-writer use; for
// counters hammered by many producers at once use ShardedCounter.
type Counter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// stripes stripes a ShardedCounter across cache lines; power of two.
const stripes = 8

// stripeHint distributes concurrent writers across stripes. Goroutine
// stacks live at least a segment apart, so bits above the frame offset
// of a stack address differ between goroutines while staying stable
// across calls from the same frame depth — a free, allocation-free
// writer ID. Any value is correct; the hint only spreads contention.
//
//go:nosplit
func stripeHint() uint64 {
	var b byte
	// The address is consumed as an integer immediately, so escape
	// analysis keeps b on the stack — no allocation per counter bump
	// (pinned by TestHotPathAllocations).
	return uint64(uintptr(unsafe.Pointer(&b))) >> 10
}

// ShardedCounter is a Counter striped across cache lines for counters
// bumped concurrently by many producer goroutines (HA fan-out
// accounting): writers pick a stripe from their stack address, readers
// sum. Eight stripes cost 512B — irrelevant for the handful of
// multi-producer counters — and turn a serialising LOCK ADD hotspot
// into (usually) uncontended per-line adds.
type ShardedCounter struct {
	s [stripes]Counter
}

// Inc adds 1 on the calling goroutine's stripe.
func (c *ShardedCounter) Inc() { c.s[stripeHint()&(stripes-1)].v.Add(1) }

// Add adds n on the calling goroutine's stripe.
func (c *ShardedCounter) Add(n uint64) { c.s[stripeHint()&(stripes-1)].v.Add(n) }

// Load sums the stripes. Monotone per stripe, so concurrent Loads are
// consistent in the usual counter sense (may lag in-flight adds).
func (c *ShardedCounter) Load() uint64 {
	var sum uint64
	for i := range c.s {
		sum += c.s[i].v.Load()
	}
	return sum
}

// Gauge is a last-value cell (signed: levels can fall).
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark idiom (WAL ring occupancy). The common case is one
// relaxed load and no write.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistBuckets is the fixed log2 bucket count: bucket i holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds
// zero; bucket HistBuckets-1 absorbs everything from ~9.2 minutes (in
// nanoseconds) up. Fixed geometry means observation is a bit-length
// instruction and an indexed add — no search, no configuration, and
// every histogram in the system is mergeable with every other.
const HistBuckets = 40

// Histogram is a log2 fixed-bucket latency histogram. Observations are
// three atomic adds on single-writer (or lightly contended) cells; the
// struct is padded so the count/sum header and a concurrent reader's
// cache traffic do not bounce the writer's line... and a nil *Histogram
// swallows observations, which is how disabled telemetry drops the
// span clock reads too (see Start).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	_       [cacheLine - 16]byte
	buckets [HistBuckets]atomic.Uint64
	// Exemplar cells: each bucket optionally remembers the last trace
	// ID (and the observed value) that landed in it, linking the
	// distribution back to a /debug/traces record. Best-effort under
	// concurrency (ID and value are separate atomics), zero = none.
	exID [HistBuckets]atomic.Uint64
	exV  [HistBuckets]atomic.Uint64
}

// Observe records v (nanoseconds, by convention). Safe on a nil
// receiver (no-op).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveEx records v and, when traceID is nonzero, stamps the
// bucket's exemplar cell with it. Safe on a nil receiver (no-op).
func (h *Histogram) ObserveEx(v, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.exV[i].Store(v)
	h.exID[i].Store(traceID)
}

// Exemplar returns bucket i's exemplar trace ID and observed value
// (0, 0 when no exemplar has landed there).
func (h *Histogram) Exemplar(i int) (traceID, v uint64) {
	if h == nil || i < 0 || i >= HistBuckets {
		return 0, 0
	}
	return h.exID[i].Load(), h.exV[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketBound returns bucket i's inclusive upper bound (2^i - 1).
func BucketBound(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// timeBase anchors the monotonic clock; Nanotime deltas are what spans
// record, so the base is arbitrary.
var timeBase = time.Now()

// Nanotime returns monotonic nanoseconds since process start — the
// span clock (one VDSO clock read, no allocation).
func Nanotime() int64 { return int64(time.Since(timeBase)) }

// Span is one in-flight stage timing. The zero Span is a no-op, which
// is how disabled telemetry costs no clock reads.
type Span struct {
	h  *Histogram
	t0 int64
}

// Start begins a span against h; nil h returns a no-op span without
// reading the clock.
func Start(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: Nanotime()}
}

// End records the elapsed nanoseconds (no-op for a no-op span).
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(uint64(Nanotime() - s.t0))
	}
}

// metric is one registered series.
type metric struct {
	name   string
	labels string // pre-rendered, sorted at scope construction: k1="v1",k2="v2"
	help   string
	kind   Kind

	counter   *Counter
	sharded   *ShardedCounter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// value reads a counter/gauge metric's current value as float64.
func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Load())
	case m.sharded != nil:
		return float64(m.sharded.Load())
	case m.counterFn != nil:
		return float64(m.counterFn())
	case m.gauge != nil:
		return float64(m.gauge.Load())
	case m.gaugeFn != nil:
		return m.gaugeFn()
	default:
		return 0
	}
}

// Registry holds registered metrics for exposition and snapshots.
// Registration is cheap-but-locking (construction time); reads
// (Snapshot, WritePrometheus) take a read lock and only load atomics,
// so they can run concurrently with full-rate ingest.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	index   map[string]int // name + "\x00" + labels -> metrics slot
	start   time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int), start: time.Now()}
}

// Start returns the registry's creation time (uptime basis).
func (r *Registry) Start() time.Time { return r.start }

// register inserts m, replacing any previous series with the same name
// and label set (re-attached engines re-register their shards; the
// newest generation wins, keeping the exposition well-formed).
func (r *Registry) register(m *metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name + "\x00" + m.labels
	if i, ok := r.index[key]; ok {
		r.metrics[i] = m
		return
	}
	r.index[key] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// sorted returns the metrics ordered by (name, labels) for stable,
// grouped exposition. Caller holds no lock. Nil-safe: a nil registry
// has no series (Mux serves an empty exposition).
func (r *Registry) sorted() []*metric {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Scope is a registry handle carrying a fixed label prefix (e.g.
// collector="2"). A nil Scope is valid everywhere and yields working,
// unregistered primitives — the telemetry-off mode.
type Scope struct {
	r      *Registry
	labels []Label
}

// Scope roots a label scope on the registry. Nil-safe.
func (r *Registry) Scope(labels ...Label) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, labels: labels}
}

// With extends the scope's label set. Nil-safe.
func (s *Scope) With(labels ...Label) *Scope {
	if s == nil {
		return nil
	}
	merged := make([]Label, 0, len(s.labels)+len(labels))
	merged = append(merged, s.labels...)
	merged = append(merged, labels...)
	return &Scope{r: s.r, labels: merged}
}

// renderLabels formats the scope's labels (plus extras) sorted by key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

func (s *Scope) add(name, help string, kind Kind, fill func(*metric)) {
	if s == nil {
		return
	}
	m := &metric{name: name, labels: renderLabels(s.labels), help: help, kind: kind}
	fill(m)
	s.r.register(m)
}

// Counter registers and returns a counter. On a nil scope the counter
// still works; it just is not exposed.
func (s *Scope) Counter(name, help string) *Counter {
	c := &Counter{}
	s.add(name, help, KindCounter, func(m *metric) { m.counter = c })
	return c
}

// ShardedCounter registers and returns a striped counter for
// multi-producer hot paths.
func (s *Scope) ShardedCounter(name, help string) *ShardedCounter {
	c := &ShardedCounter{}
	s.add(name, help, KindCounter, func(m *metric) { m.sharded = c })
	return c
}

// CounterFunc registers a counter whose value is computed at read time
// — the view-over-existing-atomics hook (no-op on a nil scope). fn must
// be safe to call concurrently with ingest.
func (s *Scope) CounterFunc(name, help string, fn func() uint64) {
	s.add(name, help, KindCounter, func(m *metric) { m.counterFn = fn })
}

// Gauge registers and returns a gauge.
func (s *Scope) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	s.add(name, help, KindGauge, func(m *metric) { m.gauge = g })
	return g
}

// GaugeFunc registers a gauge computed at read time (queue depths, ring
// occupancy — zero hot-path cost). fn must be safe to call concurrently
// with ingest. No-op on a nil scope.
func (s *Scope) GaugeFunc(name, help string, fn func() float64) {
	s.add(name, help, KindGauge, func(m *metric) { m.gaugeFn = fn })
}

// Histogram registers and returns a log2 latency histogram. On a nil
// scope it returns nil — and a nil Histogram turns the spans that would
// feed it into no-ops, clock reads included. That asymmetry with
// Counter is deliberate: counters double as the pipeline's stats
// storage and must always work; histograms exist only for telemetry.
func (s *Scope) Histogram(name, help string) *Histogram {
	if s == nil {
		return nil
	}
	h := &Histogram{}
	s.add(name, help, KindHistogram, func(m *metric) { m.hist = h })
	return h
}
