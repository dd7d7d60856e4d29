// Package journal is the control-plane flight recorder: a bounded,
// lock-free MPMC ring of fixed-size structured events with causal
// linkage. Where internal/obs answers "how much / how fast" with
// counters and histograms, the journal answers "what happened, when,
// and why": failovers, resyncs, rebalances, WAL rotations, crash
// recoveries and queue-stall episodes each publish an event carrying a
// monotonic sequence number, wall time, severity, component, collector
// label and a causality ID, so a kill/restore run renders as one
// readable timeline instead of a pile of counter deltas.
//
// The journal is a record schema over internal/obs/ring: an event is
// six words in one of the ring's seqlock slots, so the publish path
// meets internal/obs's zero-overhead bar (no locks, no allocations, a
// handful of atomic stores into a pre-sized ring), readers that fall
// more than Cap events behind lose the overwritten prefix and Since
// says exactly how many, and a reader never observes a torn event.
// Every method is nil-safe — with telemetry disabled the emitters hold
// a nil *Journal and a publish costs one branch.
package journal

import (
	"sync/atomic"
	"time"

	"dta/internal/obs"
	"dta/internal/obs/ring"
)

// DefaultSize is the ring capacity New(0) provides: large enough that a
// burst of rate-limited data-plane episodes cannot evict the
// control-plane chain (SetDown → Resync → Checkpoint) a post-mortem
// needs, small enough to be irrelevant next to the stores (8192 slots ×
// 64 B = 512 KiB).
const DefaultSize = 8192

// Event is one decoded flight-recorder entry. The stored form is six
// atomically-written words per slot; this struct is what readers get
// back out.
type Event struct {
	// Seq is the event's position in the journal's total order,
	// starting at 1. Gaps in a scrape mean the ring wrapped.
	Seq uint64
	// WallNs is the publish wall-clock time in Unix nanoseconds.
	WallNs int64
	// Cause links events of one causal chain: every event minted from
	// the same NewCause carries the same non-zero ID. 0 = standalone.
	Cause uint64
	// Arg1..Arg3 are type-specific payloads (LSNs, durations, counts);
	// see Detail for the per-type rendering.
	Arg1, Arg2, Arg3 uint64
	// Type says what happened, Sev how bad it is, Comp which subsystem
	// published it.
	Type Type
	Sev  Severity
	Comp Component
	// Collector is the cluster member the event concerns (-1 for
	// standalone systems or cluster-wide events).
	Collector int16
}

// Journal is the bounded MPMC event ring: a record schema of six words
// over internal/obs/ring. All methods are safe for concurrent use and
// nil-safe.
type Journal struct {
	causes atomic.Uint64 // last causality ID minted
	r      *ring.Ring[Event]
}

// New builds a journal with the given ring capacity, rounded up to a
// power of two (size <= 0 means DefaultSize).
func New(size int) *Journal {
	if size <= 0 {
		size = DefaultSize
	}
	return &Journal{r: ring.New(size, 6, decode)}
}

// NewCause mints a fresh causality ID. Events published with the same
// ID render as one chain. Nil-safe (returns 0, the "no cause" value).
func (j *Journal) NewCause() uint64 {
	if j == nil {
		return 0
	}
	return j.causes.Add(1)
}

// Publish appends one event and returns its sequence number. The path
// is allocation-free and lock-free: claim a slot, store six words,
// commit. On a nil journal it is a single branch and returns 0.
func (j *Journal) Publish(comp Component, typ Type, sev Severity, collector int16, cause uint64, a1, a2, a3 uint64) uint64 {
	if j == nil {
		return 0
	}
	seq, w := j.r.Claim()
	w[0].Store(uint64(time.Now().UnixNano()))
	w[1].Store(cause)
	w[2].Store(a1)
	w[3].Store(a2)
	w[4].Store(a3)
	w[5].Store(uint64(typ) | uint64(sev)<<8 | uint64(comp)<<16 | uint64(uint16(collector))<<24)
	j.r.Commit(seq)
	return seq
}

// decode unpacks the six words Publish stored.
func decode(seq uint64, w []uint64) Event {
	meta := w[5]
	return Event{
		Seq:       seq,
		WallNs:    int64(w[0]),
		Cause:     w[1],
		Arg1:      w[2],
		Arg2:      w[3],
		Arg3:      w[4],
		Type:      Type(meta),
		Sev:       Severity(meta >> 8),
		Comp:      Component(meta >> 16),
		Collector: int16(uint16(meta >> 24)),
	}
}

// events is the journal's ring, nil for a nil journal.
func (j *Journal) events() *ring.Ring[Event] {
	if j == nil {
		return nil
	}
	return j.r
}

// Last returns the newest sequence number issued (0 = empty).
func (j *Journal) Last() uint64 { return j.events().Last() }

// Dropped counts events overwritten by ring wrap.
func (j *Journal) Dropped() uint64 { return j.events().Dropped() }

// Cap returns the ring capacity in events.
func (j *Journal) Cap() int { return j.events().Cap() }

// Since appends the events published after cursor to buf and returns
// the next cursor and how many were missed (see ring.Ring.Since).
func (j *Journal) Since(cursor uint64, buf []Event) (events []Event, next, missed uint64) {
	return j.events().Since(cursor, buf)
}

// Emitter binds a journal to one publishing site: the component and
// collector label are fixed once, so call sites read as
// e.Emit(EvSetDown, SevWarn, cause, ...). The zero value (nil J) is a
// valid no-op emitter — telemetry-off systems thread it everywhere and
// every Emit costs one branch.
type Emitter struct {
	J         *Journal
	Comp      Component
	Collector int16
}

// Emit publishes one event under the emitter's component and collector.
func (e Emitter) Emit(typ Type, sev Severity, cause uint64, a1, a2, a3 uint64) uint64 {
	return e.J.Publish(e.Comp, typ, sev, e.Collector, cause, a1, a2, a3)
}

// NewCause mints a causality ID on the emitter's journal.
func (e Emitter) NewCause() uint64 { return e.J.NewCause() }

// Gate rate-limits event publication from high-frequency sites (e.g.
// read-repair during a verification sweep): Allow returns true at most
// once per minGap, atomically, so a burst publishes one representative
// event (callers pass the cumulative count as an argument) instead of
// flooding the ring and evicting the control-plane chain. It reads the
// monotonic clock, so a wall-clock step cannot silence it.
type Gate struct {
	last atomic.Int64 // obs.Nanotime()+1 of the last admission; 0 = none yet
}

// Allow reports whether a publication may proceed now. The zero Gate
// admits its first call: the monotonic clock starts near zero, so
// "never admitted" cannot be read as an admission at time zero.
func (g *Gate) Allow(minGap time.Duration) bool {
	now := obs.Nanotime() + 1
	last := g.last.Load()
	if last != 0 && now-last < int64(minGap) {
		return false
	}
	return g.last.CompareAndSwap(last, now)
}
