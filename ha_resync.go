package dta

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"dta/internal/ha"
	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/rdma"
	"dta/internal/snapshot"
)

// collectorState is what the cluster knows about one collector besides
// its System: the dirty tracker, the open failure arc, and the resync
// state that a fence, SetUp or a membership change builds and a
// successful Rebalance clears. Guarded by HACluster.mu.
type collectorState struct {
	// tracker reads and repairs the collector's dirty tags: its device
	// raises them, to the epoch current at each doorbell, as it executes.
	tracker *ha.Tracker
	// cause carries the causality ID minted by the collector's SetDown (or
	// AddCollector) forward through SetUp, Rebalance's resync and the
	// post-resync checkpoint, so the whole failure→recovery arc renders
	// as one journal chain. 0 while no arc is open.
	cause uint64
	// stale marks a live-but-unsynchronised collector, and since is the
	// epoch it went stale at: Rebalance replays only peer blocks written
	// at or after it. since 0 means "missed everything, replay in full"
	// (newly added collectors, decommission survivors).
	stale bool
	since uint64
	// downAt is the epoch a down collector failed at, so SetUp can open
	// its staleness window there (0: unknown, replay everything).
	downAt uint64
	// src is where Rebalance replays the collector's missed Append
	// operations from. With fromMarks, marks[peer] is the peer's log LSN
	// when the collector went stale: every write it missed was logged by
	// its live peers ABOVE this mark (the mark is snapshotted before the
	// unreachability flag flips, mirroring the epoch fence). self is the
	// collector's OWN log LSN at the same instant: everything it logged
	// above it — in-flight ops applied while flagged down, and all
	// post-restore fan-out — it already holds, so Rebalance
	// multiset-subtracts those entries from the peers' replay streams
	// instead of appending them twice.
	src   resyncSource
	marks map[int]uint64
	self  uint64
	// attempts counts deferred resyncs, and retryAt is the obs.Nanotime
	// deadline before the next one (see deferResync).
	attempts int
	retryAt  int64
}

// resyncSource is where a stale collector's Append resync reads from.
type resyncSource uint8

const (
	// fromSnapshots replays the peers' index-aligned ring suffixes.
	fromSnapshots resyncSource = iota
	// fromLogStart replays every peer's whole log: the collector (a
	// newcomer) missed the whole history.
	fromLogStart
	// fromMarks replays every peer's log above the collector's marks.
	fromMarks
)

// markStale opens the collector's staleness window at epoch. A collector
// already stale keeps its older window: it still misses writes from the
// first fault.
func (s *collectorState) markStale(epoch uint64) {
	if !s.stale || epoch < s.since {
		s.stale, s.since = true, epoch
	}
}

// logFrom is the LSN above which peer p's log holds what the collector
// missed (log sources only).
func (s *collectorState) logFrom(p int) uint64 {
	if s.src == fromLogStart {
		return 0
	}
	return s.marks[p]
}

// resynced is a successful resync: everything but the tracker and the
// cause goes (Rebalance releases the cause after the checkpoint).
func (s *collectorState) resynced() {
	*s = collectorState{tracker: s.tracker, cause: s.cause}
}

// capture snapshots collector id's stores together with the replication
// metadata resync needs: Append head counts (ring-suffix replay) and
// dirty-epoch tags (incremental replay).
func (c *HACluster) capture(id int) *snapshot.Snapshot {
	s := snapshot.Capture(c.systems[id].Host())
	if b := c.systems[id].Translator().AppendBatcher(); b != nil {
		s.AppendHeads = b.WrittenCounts(nil)
	}
	if tk := c.state[id].tracker; tk != nil {
		s.KeyWriteTags = tk.Tags("keywrite")
		s.KeyIncTags = tk.Tags("keyincrement")
		s.PostcardTags = tk.Tags("postcarding")
		s.TagBlockBytes = rdma.TagBlockBytes
	}
	return s
}

// SetDown injects a failure: collector i stops receiving writes and
// answering queries until SetUp. Safe mid-run. The staleness epoch is
// bumped BEFORE the down flag flips, and the bumped epoch remembered as
// the rejoin replay window: a fan-out writer decides its whole skip set
// before its first emit (see Reporter.fan), so if it skips i it
// observed the flag — and therefore the bump — before tagging any
// replica's blocks, putting every one of its marks at or after the
// window. No skipped write can escape the replay.
func (c *HACluster) SetDown(i int) error {
	c.fenceMu.Lock()
	defer c.fenceMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkCollector(i); err != nil {
		return err
	}
	if c.health.IsDown(i) {
		return nil
	}
	// One causality ID spans the whole failure→recovery arc: SetDown and
	// its fence here, SetUp, the Rebalance resync that heals i, and the
	// post-resync checkpoint all chain under it (see collectorState.cause).
	s := &c.state[i]
	s.cause = c.jr.NewCause()
	c.emit(i, journal.EvSetDown, journal.SevWarn, s.cause, c.health.Epoch(), 0, 0)
	c.fenceForStale(i, s.cause)
	s.downAt = c.health.BumpEpoch()
	c.emit(i, journal.EvEpochBump, journal.SevInfo, s.cause, s.downAt, 0, 0)
	return c.health.SetDown(i)
}

// fenceForStale snapshots log-shipping watermarks for collector i, the
// moment before its unreachability flag (down or partitioned) flips.
//
// The marks are taken BEFORE the flag (the same fence ordering as the
// epoch bump): a fan-out that skips i observed the flag, so its peer
// submissions — and therefore their log records — land strictly above
// these marks. Nothing i misses can hide below its replay window;
// records at or below the marks that i also holds are merely replayed
// redundantly (append replay tolerates duplicates within one ring lap).
// A flapping collector keeps its oldest marks, like its oldest epoch
// window.
//
// Two exclusions keep the marks honest:
//   - A collector that is ALREADY stale without marks (a reshard via
//     Decommission voided them) must keep the
//     snapshot resync path: lists moved to it carry history from
//     long before any mark taken now, so fresh marks would hide it.
//   - Down peers are still marked (not skipped): their logs are
//     frozen while down, and the suffix i misses — including what a
//     currently-down peer logs after ITS later revival — sits above
//     today's frozen position. Omitting the entry would default the
//     watermark to zero and replay that peer's entire log,
//     duplicating all shared history far beyond one ring lap.
func (c *HACluster) fenceForStale(i int, cause uint64) {
	if c.walDir == "" {
		return
	}
	s := &c.state[i]
	if s.src != fromSnapshots || s.stale {
		return
	}
	// Quiesce queued ingest before reading any mark. The caller holds
	// fenceMu's write side, so no fan-out is in flight and none can
	// start; draining the engine then forces every already-queued op
	// through the shard workers onto its owners' logs. After this,
	// every replicated op is either logged on ALL its owners (below
	// all marks) or still producer-staged on NONE (above all marks) —
	// the symmetry the exclusion multiset diff needs to be exact. A
	// drain error is deliberately ignored: a broken engine only
	// widens the replay window, never narrows it.
	if c.eng != nil && !c.eng.closed() {
		_ = c.eng.Drain()
	}
	// The target's own position first: anything it logs from here on
	// (in-flight ops applied while flagged down, later post-restore
	// fan-out) it provably holds, and Rebalance subtracts those entries
	// from the peers' replay streams.
	if w := c.systems[i].wal; w != nil {
		s.self = w.LastLSN()
	}
	s.src, s.marks = fromMarks, make(map[int]uint64)
	for _, p := range c.ring.Members() {
		if p == i {
			continue
		}
		if w := c.systems[p].wal; w != nil {
			s.marks[p] = w.LastLSN()
		}
	}
	c.emit(i, journal.EvWALFence, journal.SevInfo, cause, s.self, uint64(len(s.marks)), 0)
}

// SetUp revives collector i. It comes back stale — it missed every
// write while down, so queries prefer its peers — until Rebalance
// resynchronises it (replaying only what was written since it failed).
func (c *HACluster) SetUp(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkCollector(i); err != nil {
		return err
	}
	if !c.health.IsDown(i) {
		return nil
	}
	if err := c.health.SetUp(i); err != nil {
		return err
	}
	// A collector that flapped without an intervening Rebalance keeps
	// its oldest window: it still misses writes from the first failure.
	s := &c.state[i]
	s.markStale(s.downAt)
	s.downAt = 0
	c.emit(i, journal.EvSetUp, journal.SevInfo, s.cause, s.since, 0, 0)
	return nil
}

// Resync retry/backoff contract: capped exponential backoff with
// seeded jitter per stale target.
const (
	resyncBackoffBase = 5 * time.Millisecond
	resyncBackoffCap  = 200 * time.Millisecond
	// DefaultRetryBudget bounds RebalanceUntilHealed attempts when the
	// caller passes no budget.
	DefaultRetryBudget = 8
)

// deferResync records a failed (or undeliverable) resync attempt for
// target id: backoff doubles per attempt up to the cap, plus seeded
// jitter, with an EvResyncRetry event and an HAStats counter. The
// target keeps its stale mark (and watermarks); Rebalance — typically
// via RebalanceUntilHealed, which sleeps out the deadline — retries it.
// Called under c.mu.
func (c *HACluster) deferResync(id int, cause uint64) {
	s := &c.state[id]
	backoff := min(resyncBackoffCap, resyncBackoffBase<<min(s.attempts, 6))
	if c.retryRNG != nil {
		backoff += time.Duration(c.retryRNG.Int63n(int64(backoff)/2 + 1))
	}
	s.attempts++
	s.retryAt = obs.Nanotime() + int64(backoff)
	c.health.RecordResyncRetry()
	// Open a trace resync window covering the backoff: any data-plane
	// trace completing while the retry is pending is tail-retained with
	// FResync, tying slow acks to the recovery in progress.
	c.trc.NoteResyncUntil(s.retryAt)
	c.emit(id, journal.EvResyncRetry, journal.SevWarn, cause, uint64(s.attempts), uint64(backoff), 0)
}

// Rebalance is the resharding barrier: it drains the attached engine
// (or flushes every live collector when reporting synchronously), then
// replays peer snapshots into every live stale collector and clears its
// stale mark. Afterwards rejoined, added and survivor collectors all
// serve their owned slices at full fidelity. When every live collector
// is stale (e.g. after decommissioning one while it was down), the
// survivors cross-sync from each other's snapshots, so keys that moved
// owner regain their full replica count from whichever peer still holds
// them.
//
// Producers must be quiesced first (Flush engine reporters, stop sync
// reporters): Rebalance copies store memory and must not race ingest.
//
// Resync failures do not abort the loop: every live stale collector is
// attempted, the errors are aggregated, and only the failed collectors
// keep their stale marks (and the pending snapshots their data) for the
// next attempt. Successfully resynced collectors are never replayed
// again on retry, and a retried replay into a still-stale collector is
// idempotent (overwrite / max-merge), so a partial failure leaves the
// cluster in a consistent, retryable state rather than half-rebalanced.
func (c *HACluster) Rebalance() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != nil && !c.eng.closed() {
		if err := c.eng.Drain(); err != nil {
			return err
		}
	} else if err := c.flushLive(); err != nil {
		return err
	}
	stale := c.staleCount()
	if stale == 0 && len(c.pending) == 0 {
		return nil
	}
	// The rebalance pass gets its own chain; each target's resync events
	// chain under the cause its SetDown (or AddCollector) minted, so the
	// timeline links failure to healing per collector.
	rebCause := c.jr.NewCause()
	rebStart := obs.Nanotime()
	c.emit(-1, journal.EvRebalanceStart, journal.SevInfo, rebCause, uint64(stale), 0, 0)
	// Capture every live ring member once, before any resync, so all
	// replays see pre-rebalance state. Stale members are peers too:
	// when everyone is stale (Decommission marks all survivors), they
	// cross-sync from each other — each survivor holds data its peers
	// are missing — rather than skipping resync for want of a fresh
	// peer. Stale captures are merely older, so they replay BEFORE
	// pending and fresh ones: later merges win slot conflicts, keeping
	// fresher values on top.
	var stalePeers, freshPeers []int
	for _, id := range c.ring.Members() {
		if c.health.IsDown(id) {
			continue
		}
		if c.state[id].stale {
			stalePeers = append(stalePeers, id)
		} else {
			freshPeers = append(freshPeers, id)
		}
	}
	livePeers := append(append([]int(nil), stalePeers...), freshPeers...)
	caps := make(map[int]*snapshot.Snapshot, len(livePeers))
	for _, id := range livePeers {
		caps[id] = c.capture(id)
	}
	var errs []error
	var resynced []int
	// Targets go in ID order, so the deferrals draw their retry jitter
	// from retryRNG in an order the seed fixes.
	for id := range c.state {
		s := &c.state[id]
		if !s.stale || c.health.IsDown(id) {
			continue // a down target stays stale for its next rejoin
		}
		// Resync events chain under the cause the target's failure
		// minted; targets stale for other reasons (reshard) join the
		// rebalance's own chain.
		cause := cmp.Or(s.cause, rebCause)
		// A live peer partitioned from the target defers the WHOLE
		// resync: clearing the stale mark after a partial replay (some
		// peers' history unreachable) would lose that history for good.
		// The target stays stale under the retry/backoff contract and a
		// later Rebalance — after the partition heals, or routes around
		// it — converges it.
		if blocked := c.cutPeerOf(id, livePeers); blocked >= 0 {
			c.deferResync(id, cause)
			errs = append(errs, fmt.Errorf("dta: rebalance collector %d: peer %d partitioned, resync deferred", id, blocked))
			continue
		}
		// Log-shipping: when the target has recorded watermarks and
		// every live peer's log still retains its suffix, Append resync
		// replays the peers' logged operations (exact) instead of the
		// snapshots' index-aligned ring suffixes (approximate under
		// concurrent producers).
		useLog := s.src != fromSnapshots && !c.fullResync && c.logResyncReady(id, s, livePeers)
		var excl map[appendOpKey]int
		if useLog {
			var err error
			if excl, err = c.appendExclusion(id, s.self); err != nil {
				useLog = false // self-log unreadable: snapshot path
			}
		}
		opsFor := func(p int) ha.AppendOps {
			if !useLog {
				return nil
			}
			return c.appendOpsFrom(id, p, s.logFrom(p), excl)
		}
		var peers []ha.Peer
		for _, p := range stalePeers {
			if p != id {
				peers = append(peers, ha.Peer{Snap: caps[p], AppendOps: opsFor(p)})
			}
		}
		for _, snap := range c.pending {
			peers = append(peers, ha.Peer{Snap: snap})
		}
		for _, p := range freshPeers {
			peers = append(peers, ha.Peer{Snap: caps[p], AppendOps: opsFor(p)})
		}
		if len(peers) > 0 {
			since := s.since
			if c.fullResync {
				since = 0
			}
			c.emit(id, journal.EvResyncStart, journal.SevInfo, cause, since, uint64(len(peers)), 0)
			t0 := obs.Nanotime()
			st, err := ha.Resync(ha.Target{
				Host:       c.systems[id].Host(),
				Batcher:    c.systems[id].Translator().AppendBatcher(),
				Dirty:      s.tracker,
				StaleSince: since,
			}, peers)
			if err != nil {
				c.emit(id, journal.EvResyncFail, journal.SevError, cause, 0, 0, 0)
				c.deferResync(id, cause)
				errs = append(errs, fmt.Errorf("dta: rebalance collector %d: %w", id, err))
				continue // keep the stale mark (and watermarks): retry resyncs it
			}
			c.emit(id, journal.EvResyncEnd, journal.SevInfo, cause,
				st.SlotsReplayed(), st.SlotsSkipped, uint64(obs.Nanotime()-t0))
			c.health.RecordResync(&st)
			resynced = append(resynced, id)
		}
		s.resynced()
	}
	// Resync writes land in the stores directly, not through the
	// targets' own logs — so without a checkpoint, a later crash would
	// recover a healed collector from a log that never saw the healing
	// and silently re-diverge. Checkpointing folds the healed stores
	// into each target's recovery baseline (and reclaims its covered
	// segments); it runs after the whole resync loop because a
	// checkpoint truncates the target's log, which other stale targets
	// may still be reading as log-shipping peers. A checkpoint failure
	// is a durability regression, not a resync failure: the live
	// replicas are already converged, so it joins the error aggregate
	// without re-marking anyone stale.
	for _, id := range resynced {
		// The healed collector's failure arc ends here (or at the resync
		// end, when it has no log to checkpoint): release its cause.
		cause := c.state[id].cause
		c.state[id].cause = 0
		if c.systems[id].wal == nil {
			continue
		}
		// Thread the arc's cause into the checkpoint's events (safe under
		// c.mu; see System.ckptCause).
		c.systems[id].ckptCause = cause
		if _, err := c.systems[id].Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("dta: rebalance checkpoint collector %d: %w", id, err))
		}
	}
	c.emit(-1, journal.EvRebalanceEnd, journal.SevInfo, rebCause,
		uint64(len(resynced)), uint64(obs.Nanotime()-rebStart), 0)
	if len(errs) > 0 {
		// Keep pending too: still-stale collectors need it on retry.
		return errors.Join(errs...)
	}
	c.pending = nil
	return nil
}

// staleCount is the number of stale collectors. Called under c.mu.
func (c *HACluster) staleCount() int {
	n := 0
	for i := range c.state {
		if c.state[i].stale {
			n++
		}
	}
	return n
}

// cutPeerOf returns the first live peer partitioned from target id (-1
// when none, or chaos is off). Called under c.mu.
func (c *HACluster) cutPeerOf(id int, livePeers []int) int {
	if c.chaos == nil {
		return -1
	}
	for _, p := range livePeers {
		if p != id && c.chaos.PeersCut(id, p) {
			return p
		}
	}
	return -1
}

// RebalanceUntilHealed runs Rebalance until every stale target heals or
// the retry budget runs out, sleeping out the per-target backoff
// deadlines between attempts — the driver loop of the retry/backoff
// contract. budget <= 0 means DefaultRetryBudget. On a clean cluster
// (nothing deferred) it degenerates to a single Rebalance. Same
// quiescence contract as Rebalance.
func (c *HACluster) RebalanceUntilHealed(budget int) error {
	if budget <= 0 {
		budget = DefaultRetryBudget
	}
	var err error
	for attempt := 0; attempt < budget; attempt++ {
		if err = c.Rebalance(); err == nil {
			return nil
		}
		// Sleep to the latest pending deadline so the next pass retries
		// every deferred target at once.
		c.mu.RLock()
		var until int64
		for i := range c.state {
			until = max(until, c.state[i].retryAt)
		}
		c.mu.RUnlock()
		if wait := until - obs.Nanotime(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
	}
	return err
}
