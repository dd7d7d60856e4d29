// Package trace is the data-plane trace pipeline: sampled end-to-end
// records that follow ONE report from a dta.Reporter's submit through
// the engine queue, translator, RDMA emit and the WAL to the durable
// ack, answering "where did THIS report's latency go?" — the per-report
// complement to the obs histograms (distributions) and the journal
// (control-plane events).
//
// The design mirrors the rest of internal/obs:
//
//   - Fixed-size records. A trace is one in-flight slot holding a
//     per-stage nanosecond stamp array; no maps, no strings, no
//     per-report allocation anywhere on the hot path.
//   - Lock-free everywhere. In-flight slots come from a tagged Treiber
//     freelist (the tag defeats ABA); a completed trace is a record
//     schema over internal/obs/ring (id, flags and nine stamps), so
//     scrapers never block producers.
//   - Nil = off. Every method is nil-receiver / zero-value safe: with
//     telemetry disabled the whole pipeline costs one predicted branch.
//
// Two samplers compose:
//
//   - Head-based: 1/2^CandidateShift of submits acquire a slot at all
//     (the caller-local Sampler makes the sampled-out path zero-atomic),
//     and 1/2^HeadShift of those candidates are kept unconditionally.
//   - Tail-based: any candidate that crossed the latency threshold, hit
//     a queue stall, a degraded (skipped) fsync, or a resync-retry
//     window is ALWAYS kept — chaos runs produce exactly the slow
//     traces one wants to look at.
//
// Ownership protocol: Begin returns a Handle with one reference. The
// engine worker (or sync caller) calls Finish after the translator is
// done; the WAL takes a second reference (OwnWAL) when the report
// enters its ring and Finishes after the durable ack. Whichever side
// drops the last reference evaluates the keep decision, publishes, and
// recycles the slot — correct in both completion orders.
package trace

import (
	"sort"
	"sync/atomic"
	"time"

	"dta/internal/obs"
	"dta/internal/obs/ring"
)

// Stage identifies one timestamped hop in a report's life. Stamps are
// obs.Nanotime values (monotonic ns since process start); a zero stamp
// means the report skipped that stage (e.g. no WAL configured, or the
// synchronous reporter path which has no engine queue).
type Stage uint8

const (
	// StSubmit: an engine Reporter accepted the report (or the sync path
	// began delivery). Always the first stamp.
	StSubmit Stage = iota
	// StEnqueue: the report's chunk landed in the engine shard queue.
	// Submit→Enqueue gap is chunk-fill time; Enqueue includes any
	// Block-policy stall wait.
	StEnqueue
	// StDequeue: the engine worker picked the chunk up. Enqueue→Dequeue
	// is pure queue wait.
	StDequeue
	// StWALRing: the report was copied into the WAL writer ring
	// (includes any ring-full backpressure wait).
	StWALRing
	// StEmit: the last per-replica RDMA emit for this report finished.
	StEmit
	// StTranslate: the translator finished processing the report
	// (primitive dispatch + all emits + ack handling).
	StTranslate
	// StWALWrite: the flusher wrote the encoded record to the segment
	// file (buffered write, not yet durable).
	StWALWrite
	// StFsync: the fsync covering this record completed. Zero when the
	// ack was degraded (fsync skipped) or mode is SyncNone.
	StFsync
	// StAck: the report became durably acknowledged. Last stamp on the
	// WAL path.
	StAck

	// NumStages sizes the per-trace stamp array.
	NumStages = int(StAck) + 1
)

var stageNames = [NumStages]string{
	"submit", "enqueue", "dequeue", "wal_ring", "emit",
	"translate", "wal_write", "fsync", "ack",
}

// String returns the stage's wire name as used in /debug/traces.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "?"
}

// Trace flags: why a trace was retained, and what it hit on the way.
// Tail-based retention keeps any trace with a nonzero flag word.
const (
	// FStall: the report waited on a full engine queue or WAL ring.
	FStall uint32 = 1 << iota
	// FDegraded: the durable ack was degraded (fsync skipped under the
	// slow-disk degrade state machine).
	FDegraded
	// FResync: the trace finished inside a resync-retry window (or an
	// RDMA sequence NAK forced a requester resync mid-report).
	FResync
	// FSlow: total latency crossed Config.LatencyNs. Set by the keep
	// evaluation, not by instrumentation sites.
	FSlow
	// FHead: kept by the head sampler alone (no tail condition fired).
	FHead
)

var flagNames = []struct {
	bit  uint32
	name string
}{
	{FStall, "stall"},
	{FDegraded, "degraded"},
	{FResync, "resync"},
	{FSlow, "slow"},
	{FHead, "head"},
}

// FlagNames expands a flag word into its wire names.
func FlagNames(f uint32) []string {
	var out []string
	for _, fn := range flagNames {
		if f&fn.bit != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// Config sizes a Tracer. The zero value selects usable defaults.
type Config struct {
	// Ring is the completed-trace ring size (rounded up to a power of
	// two). Default 1024.
	Ring int
	// InFlight is the in-flight slot pool size; it bounds concurrent
	// traced reports (candidates past the pool are silently untraced).
	// Default 256.
	InFlight int
	// CandidateShift: 1/2^k of submits become trace candidates. The
	// default is 10 (1/1024): a candidate pays the slot acquire, the
	// per-stage clock reads and the keep evaluation, so the rate is
	// what amortises tracing under the <3% overhead gate while still
	// yielding thousands of candidates per second at pipeline rates.
	CandidateShift uint
	// HeadShift: 1/2^k of candidates are kept unconditionally.
	// Default 2 (so default head rate is 1/4096 of traffic).
	HeadShift uint
	// LatencyNs is the tail-retention threshold: any candidate whose
	// submit→last-stamp total meets it is kept. Default 1ms.
	LatencyNs int64
}

const (
	defaultRing      = 1024
	defaultInFlight  = 256
	defaultCandShift = 10
	defaultHeadShift = 2
	defaultLatencyNs = int64(time.Millisecond)
)

// inflight is one active trace: fixed-size, recycled through the
// freelist. Stamps are atomics because a trace is written from several
// goroutines in sequence (reporter → engine worker → WAL flusher) and
// scraped-adjacent fields must stay race-clean.
type inflight struct {
	idx   uint32 // position in Tracer.slots, for freelist push
	id    uint64 // trace ID, unique per acquire, never zero
	flags atomic.Uint32
	refs  atomic.Int32
	ts    [NumStages]atomic.Int64
	_     [32]byte // pad to 128: two cache lines, no false sharing across slots
}

// Record is one completed trace as read out of the ring.
type Record struct {
	Seq   uint64
	ID    uint64
	Flags uint32
	TS    [NumStages]int64
}

// Start returns the trace's first nonzero stamp (its submit time).
func (r *Record) Start() int64 {
	for _, ts := range r.TS {
		if ts != 0 {
			return ts
		}
	}
	return 0
}

// Total returns end-to-end latency in ns: the last stamp minus Start.
func (r *Record) Total() int64 {
	var last int64
	for _, ts := range r.TS {
		last = max(last, ts)
	}
	return last - r.Start()
}

// Segment is one stamped stage of a trace in time order: From, stamped
// AtNs after the trace's Start, and the gap of Ns to the next stamped
// stage To. The last segment ends the trace: its To is From and its Ns
// is 0.
type Segment struct {
	From, To Stage
	AtNs, Ns int64
}

// Name labels the segment "from→to".
func (s Segment) Name() string { return s.From.String() + "→" + s.To.String() }

// Segments returns the trace's stamped stages sorted by time, each with
// the gap to the next. Time order need not be enum order: a report can
// reach the WAL ring before its emit and translate stamps land.
func (r *Record) Segments() []Segment {
	var segs []Segment
	for i, ts := range r.TS {
		if ts != 0 {
			segs = append(segs, Segment{From: Stage(i), To: Stage(i), AtNs: ts - r.Start()})
		}
	}
	sort.SliceStable(segs, func(a, b int) bool { return segs[a].AtNs < segs[b].AtNs })
	for i := 1; i < len(segs); i++ {
		segs[i-1].To, segs[i-1].Ns = segs[i].From, segs[i].AtNs-segs[i-1].AtNs
	}
	return segs
}

// Tracer owns the in-flight pool and the completed ring. One Tracer
// serves a whole deployment (System, Cluster or HACluster), shared by
// every layer the way the Registry and Journal are.
type Tracer struct {
	slots []inflight
	next  []atomic.Uint32 // freelist links, idx+1 encoded (0 = end)
	free  atomic.Uint64   // tagged head: tag<<32 | idx+1

	ids       atomic.Uint64 // trace ID allocator
	headN     atomic.Uint64 // head-keep counter (candidates)
	headMask  uint64
	candMask  uint64 // candidate when sampler n&candMask == 0
	latencyNs int64

	// resyncUntil: traces finishing before this Nanotime deadline get
	// FResync — set by the HA resync-retry path so the traces that
	// overlap a retry window are retained.
	resyncUntil atomic.Int64

	exhausted atomic.Uint64 // candidates dropped: pool empty

	done *ring.Ring[Record] // completed traces
}

// New builds a Tracer. Zero-value Config fields select defaults.
func New(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = defaultRing
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = defaultInFlight
	}
	if cfg.CandidateShift == 0 {
		cfg.CandidateShift = defaultCandShift
	}
	if cfg.HeadShift == 0 {
		cfg.HeadShift = defaultHeadShift
	}
	if cfg.LatencyNs == 0 {
		cfg.LatencyNs = defaultLatencyNs
	}
	t := &Tracer{
		slots:     make([]inflight, cfg.InFlight),
		next:      make([]atomic.Uint32, cfg.InFlight),
		headMask:  1<<cfg.HeadShift - 1,
		candMask:  1<<cfg.CandidateShift - 1,
		latencyNs: cfg.LatencyNs,
		done:      ring.New(cfg.Ring, 2+NumStages, decode),
	}
	for i := range t.slots {
		t.slots[i].idx = uint32(i)
		if i+1 < len(t.slots) {
			t.next[i].Store(uint32(i + 2))
		}
	}
	t.free.Store(1) // head = slot 0 (idx+1 encoding), tag 0
	return t
}

// Exhausted returns how many candidates were dropped because the
// in-flight pool was empty.
func (t *Tracer) Exhausted() uint64 {
	if t == nil {
		return 0
	}
	return t.exhausted.Load()
}

// NoteResyncUntil marks a resync-retry window: traces finishing before
// untilNs (obs.Nanotime scale) are flagged FResync and tail-retained.
// Nil-safe; monotonic (never shortens an existing window).
func (t *Tracer) NoteResyncUntil(untilNs int64) {
	if t == nil {
		return
	}
	for {
		cur := t.resyncUntil.Load()
		if untilNs <= cur || t.resyncUntil.CompareAndSwap(cur, untilNs) {
			return
		}
	}
}

// Sampler is the caller-local candidate filter: one per Submitter (or
// per sync reporter), unsynchronized, so the sampled-out fast path is
// a single increment and branch with no shared-cache traffic.
type Sampler struct {
	n uint64
}

// Begin starts a trace for this submit, or returns the invalid Handle
// when the tracer is nil, the submit is sampled out, or the in-flight
// pool is exhausted. The returned handle carries one reference.
func (t *Tracer) Begin(s *Sampler) Handle {
	// Inline-friendly fast path: the sampled-out branch (the common
	// case) must cost one increment and one mask check at the call
	// site, so everything heavier lives in BeginCandidate.
	if t != nil {
		s.n++
		if s.n&t.candMask == 0 {
			return t.BeginCandidate()
		}
	}
	return Handle{}
}

// Candidate advances the sampler and reports whether this submit is a
// sampling candidate. Call sites whose common path must not carry a
// Handle value at all (keeping the two-word zero Handle live across a
// downstream call costs registers on every report) use
// Candidate + BeginCandidate instead of Begin; t must be non-nil.
func (t *Tracer) Candidate(s *Sampler) bool {
	s.n++
	return s.n&t.candMask == 0
}

// BeginCandidate acquires an in-flight slot for a sampling candidate
// already admitted by Begin or Candidate.
func (t *Tracer) BeginCandidate() Handle {
	sl := t.acquire()
	if sl == nil {
		t.exhausted.Add(1)
		return Handle{}
	}
	return Handle{t: t, s: sl}
}

// acquire pops an in-flight slot and resets it, or returns nil when
// the pool is empty.
func (t *Tracer) acquire() *inflight {
	var sl *inflight
	for {
		old := t.free.Load()
		head := uint32(old)
		if head == 0 {
			return nil
		}
		nxt := t.next[head-1].Load()
		tag := old >> 32
		if t.free.CompareAndSwap(old, (tag+1)<<32|uint64(nxt)) {
			sl = &t.slots[head-1]
			break
		}
	}
	sl.id = t.ids.Add(1)
	sl.flags.Store(0)
	sl.refs.Store(1)
	for i := range sl.ts {
		sl.ts[i].Store(0)
	}
	return sl
}

// release pushes a slot back onto the freelist.
func (t *Tracer) release(sl *inflight) {
	enc := sl.idx + 1
	for {
		old := t.free.Load()
		t.next[sl.idx].Store(uint32(old))
		tag := old >> 32
		if t.free.CompareAndSwap(old, (tag+1)<<32|uint64(enc)) {
			return
		}
	}
}

// Handle is one active trace reference. The zero value is the invalid
// handle: every method is a cheap no-op branch on it, which is how the
// sampled-out and telemetry-off paths stay free.
type Handle struct {
	t *Tracer
	s *inflight
}

// Valid reports whether the handle refers to a live trace.
func (h Handle) Valid() bool { return h.s != nil }

// ID returns the trace ID, or 0 for the invalid handle. Trace IDs are
// never zero, so 0 doubles as "no exemplar" in histogram cells.
func (h Handle) ID() uint64 {
	if h.s == nil {
		return 0
	}
	return h.s.id
}

// Stamp records obs.Nanotime() for the stage.
func (h Handle) Stamp(st Stage) {
	if h.s == nil {
		return
	}
	h.s.ts[st].Store(obs.Nanotime())
}

// StampAt records an explicit nanosecond stamp (obs.Nanotime scale)
// for call sites that already hold a fresh timestamp.
func (h Handle) StampAt(st Stage, ns int64) {
	if h.s == nil {
		return
	}
	h.s.ts[st].Store(ns)
}

// Flag ORs tail-retention flags into the trace.
func (h Handle) Flag(f uint32) {
	if h.s == nil {
		return
	}
	for {
		old := h.s.flags.Load()
		if old&f == f || h.s.flags.CompareAndSwap(old, old|f) {
			return
		}
	}
}

// OwnWAL takes the WAL's reference: the durable-ack side now shares
// ownership and must Finish once the record's fate is known. Returns
// false (and takes nothing) on the invalid handle.
func (h Handle) OwnWAL() bool {
	if h.s == nil {
		return false
	}
	h.s.refs.Add(1)
	return true
}

// Finish drops one reference. The last reference out evaluates the
// keep decision (tail flags, latency threshold, head sampler),
// publishes retained traces into the completed ring, and recycles the
// slot either way.
func (h Handle) Finish() {
	// Split like Begin: the invalid-handle branch (sampled-out path)
	// must inline at the call site.
	if h.s != nil {
		h.finish()
	}
}

// finish is kept out of line so Finish itself stays under the inlining
// budget: the invalid-handle branch is what every sampled-out report
// pays.
//
//go:noinline
func (h Handle) finish() {
	if h.s.refs.Add(-1) != 0 {
		return
	}
	h.t.complete(h.s)
}

// Abort drops one reference without ever publishing: the report was
// shed (Drop policy) and there is no end-to-end latency to attribute.
func (h Handle) Abort() {
	if h.s != nil {
		h.abort()
	}
}

func (h Handle) abort() {
	if h.s.refs.Add(-1) != 0 {
		return
	}
	h.t.release(h.s)
}

// complete runs the keep decision for a finished trace and recycles
// its slot.
func (t *Tracer) complete(sl *inflight) {
	flags := sl.flags.Load()
	if obs.Nanotime() < t.resyncUntil.Load() {
		flags |= FResync
	}
	var first, last int64
	for i := 0; i < NumStages; i++ {
		v := sl.ts[i].Load()
		if v == 0 {
			continue
		}
		if first == 0 || v < first {
			first = v
		}
		if v > last {
			last = v
		}
	}
	if first != 0 && last-first >= t.latencyNs {
		flags |= FSlow
	}
	keep := flags != 0
	if !keep && t.headN.Add(1)&t.headMask == 0 {
		flags |= FHead
		keep = true
	}
	if keep {
		t.publish(sl, flags)
	}
	t.release(sl)
}

// publish copies the trace into the completed ring: its id, flags and
// stamps, one word each.
func (t *Tracer) publish(sl *inflight, flags uint32) {
	seq, w := t.done.Claim()
	w[0].Store(sl.id)
	w[1].Store(uint64(flags))
	for i := range sl.ts {
		w[2+i].Store(uint64(sl.ts[i].Load()))
	}
	t.done.Commit(seq)
}

// decode unpacks the words publish stored.
func decode(seq uint64, w []uint64) Record {
	r := Record{Seq: seq, ID: w[0], Flags: uint32(w[1])}
	for i := range r.TS {
		r.TS[i] = int64(w[2+i])
	}
	return r
}

// traces is the completed-trace ring, nil for a nil tracer.
func (t *Tracer) traces() *ring.Ring[Record] {
	if t == nil {
		return nil
	}
	return t.done
}

// Last returns the newest published sequence number (0 = none yet).
func (t *Tracer) Last() uint64 { return t.traces().Last() }

// Dropped returns how many retained traces the ring overwrote.
func (t *Tracer) Dropped() uint64 { return t.traces().Dropped() }

// Since appends the traces published after cursor to buf and returns
// the next cursor and how many were missed (see ring.Ring.Since).
func (t *Tracer) Since(cursor uint64, buf []Record) (recs []Record, last, missed uint64) {
	return t.traces().Since(cursor, buf)
}
