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
//     freelist (the tag defeats ABA); completed traces are published
//     into a seqlock-validated ring identical in protocol to the
//     journal's, so scrapers never block producers.
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
	"sync/atomic"
	"time"

	"dta/internal/obs"
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

// slot is one published (completed) trace in the seqlock ring: the
// same mark protocol as the journal — odd mark = write in progress,
// mark>>1 = sequence number.
type slot struct {
	mark atomic.Uint64
	w    [2 + NumStages]atomic.Uint64 // id, flags, stamps
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
	for i := 0; i < NumStages; i++ {
		if r.TS[i] != 0 {
			return r.TS[i]
		}
	}
	return 0
}

// End returns the trace's last stamp.
func (r *Record) End() int64 {
	var last int64
	for i := 0; i < NumStages; i++ {
		if r.TS[i] > last {
			last = r.TS[i]
		}
	}
	return last
}

// Total returns end-to-end latency in ns.
func (r *Record) Total() int64 { return r.End() - r.Start() }

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

	ring []slot
	mask uint64
	seq  atomic.Uint64
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
	size := 1
	for size < cfg.Ring {
		size <<= 1
	}
	t := &Tracer{
		slots:     make([]inflight, cfg.InFlight),
		next:      make([]atomic.Uint32, cfg.InFlight),
		headMask:  1<<cfg.HeadShift - 1,
		candMask:  1<<cfg.CandidateShift - 1,
		latencyNs: cfg.LatencyNs,
		ring:      make([]slot, size),
		mask:      uint64(size - 1),
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

// publish copies the trace into the completed ring under the seqlock
// mark protocol (same as the journal): odd mark while the words are
// being stored, even mark = consistent.
func (t *Tracer) publish(sl *inflight, flags uint32) {
	seq := t.seq.Add(1)
	rs := &t.ring[seq&t.mask]
	rs.mark.Store(seq<<1 | 1)
	rs.w[0].Store(sl.id)
	rs.w[1].Store(uint64(flags))
	for i := 0; i < NumStages; i++ {
		rs.w[2+i].Store(uint64(sl.ts[i].Load()))
	}
	rs.mark.Store(seq << 1)
}

// get reads one published trace by sequence number, seqlock-validated.
func (t *Tracer) get(seq uint64, r *Record) bool {
	rs := &t.ring[seq&t.mask]
	m := rs.mark.Load()
	if m != seq<<1 {
		return false
	}
	r.Seq = seq
	r.ID = rs.w[0].Load()
	r.Flags = uint32(rs.w[1].Load())
	for i := 0; i < NumStages; i++ {
		r.TS[i] = int64(rs.w[2+i].Load())
	}
	return rs.mark.Load() == seq<<1
}

// Last returns the newest published sequence number (0 = none yet).
func (t *Tracer) Last() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Dropped returns how many retained traces were overwritten before any
// reader could have seen them relative to a from-zero read.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	last := t.seq.Load()
	size := uint64(len(t.ring))
	if last > size {
		return last - size
	}
	return 0
}

// Since reads the published traces with sequence > cursor into buf,
// oldest first, mirroring journal.Since: it returns the records, the
// newest sequence observed (the next cursor) and how many traces in
// the requested range were already overwritten.
func (t *Tracer) Since(cursor uint64, buf []Record) (recs []Record, last uint64, missed uint64) {
	if t == nil {
		return nil, cursor, 0
	}
	last = t.seq.Load()
	if last <= cursor {
		return nil, last, 0
	}
	lo := cursor + 1
	size := uint64(len(t.ring))
	if last >= size && lo < last-size+1 {
		missed = last - size + 1 - lo
		lo = last - size + 1
	}
	if max := uint64(len(buf)); last-lo+1 > max {
		missed += last - lo + 1 - max
		lo = last - max + 1
	}
	n := 0
	for seq := lo; seq <= last; seq++ {
		if t.get(seq, &buf[n]) {
			n++
		} else {
			missed++
		}
	}
	return buf[:n], last, missed
}
