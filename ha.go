package dta

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"math/rand"

	"dta/internal/chaos"
	"dta/internal/collector"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/ha"
	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/rdma"
	"dta/internal/snapshot"
	"dta/internal/wire"
)

// HAStats counts replication degradation events (degraded/lost writes,
// failover/failed queries, resyncs). See internal/ha for field docs.
type HAStats = ha.Stats

// ErrAllReplicasDown is returned by HACluster queries when every owner
// of the key is marked down.
var ErrAllReplicasDown = errors.New("dta: all replicas for key are down")

// HACluster is a replicated, fault-tolerant multi-collector deployment:
// the high-availability layer over the same collectors a Cluster shards
// across (§7, extended). Three mechanisms distinguish it from Cluster's
// static CRC-mod-N partitioning:
//
//   - Replicated ownership. A rendezvous-hash ring maps every key (and
//     Append list) to R replica collectors; reporters fan each report
//     out to all live owners, and membership change moves only the keys
//     the joining/leaving collector gains or loses.
//   - Failure injection and failover. SetDown/SetUp flip a lock-free
//     per-collector health flag mid-run. Writers skip down replicas
//     (counting degraded and lost writes instead of failing — reports
//     are best-effort, as in the paper's rate limiter), and queries
//     fall back across surviving replicas with a plurality merge,
//     counting degraded and failover queries.
//   - Recovery and live resharding. A rejoining (SetUp) or newly added
//     (AddCollector) collector is marked stale — queries prefer its
//     peers — until Rebalance drains in-flight reports and replays peer
//     snapshots into it (internal/ha.Resync), after which it serves its
//     owned slice like any other replica. Rebalance is incremental: a
//     dirty tracker tags written store blocks with a staleness epoch
//     (bumped by SetDown/AddCollector/Decommission), so a rejoining
//     collector replays only the blocks written since it went stale,
//     and Append rings replay exactly the missed suffix via cumulative
//     head counts.
//   - Read-repair. Queries consult every live owner; when replicas
//     disagree, the plurality winner is written back to the divergent
//     replicas on the spot (counted in HAStats.ReadRepairs), so
//     divergence observed by a failover query is healed by that query
//     instead of waiting for the next Rebalance.
//
// Writers and queries are safe concurrently with SetDown/SetUp.
// Membership changes (AddCollector, Decommission) and Rebalance require
// quiesced producers: Flush any engine reporters, then call them.
type HACluster struct {
	opts   Options
	r      int
	ring   *ha.Ring
	health *ha.Health
	// telemetry is shared by every member: members register under
	// collector="i" scopes, the health view's dta_ha_* counters at the
	// cluster root. deferResync opens a resync window on its tracer, so
	// traces completing while a retry backoff is pending are
	// tail-retained.
	telemetry
	// causeOf carries the causality ID minted by a collector's SetDown
	// (or AddCollector) forward through SetUp, Rebalance's resync and
	// the post-resync checkpoint, so the whole failure→recovery arc
	// renders as one journal chain. Guarded by mu.
	causeOf map[int]uint64
	// rrGate rate-limits read-repair events: a verification sweep can
	// repair thousands of slots, and one representative event per gap
	// (carrying the cumulative count) must not evict the failover chain.
	rrGate journal.Gate

	// mu guards systems growth, the stale set and pending snapshots;
	// the write lock makes Rebalance (and read-repair store writes)
	// exclusive with queries.
	mu      sync.RWMutex
	systems []*System
	// trackers[i] reads and repairs collector i's dirty tags: its device
	// raises them, to the epoch current at each doorbell, as it executes.
	trackers []*ha.Tracker
	// stale maps a live-but-unsynchronised collector to the epoch it
	// went stale at: Rebalance replays only peer blocks written at or
	// after that epoch. 0 means "missed everything, replay in full"
	// (newly added collectors, decommission survivors).
	stale map[int]uint64
	// downAt remembers the epoch a down collector failed at, so SetUp
	// can open its staleness window there.
	downAt map[int]uint64
	// pending holds captures of decommissioned collectors whose keys
	// must still be replayed into their new owners at the next Rebalance.
	pending []*snapshot.Snapshot
	eng     *Engine
	// walDir/walPol, when set (WithWAL), give every collector a write-
	// ahead log under walDir/collector-%03d and enable log-shipping
	// resync (see durability.go).
	walDir string
	walPol WALPolicy
	// walMark[target][peer] is the peer log LSN recorded when target
	// went stale: every write target missed was logged by its live peers
	// ABOVE this mark (the mark is snapshotted before the down flag
	// flips, mirroring the epoch fence), so Rebalance replays exactly
	// the peers' log suffixes. An entry with an empty inner map (a newly
	// added collector) replays peer logs from the beginning; a target
	// with no entry at all resyncs from snapshots.
	walMark map[int]map[int]uint64
	// fenceMu makes each replicated fan-out atomic with respect to the
	// watermark fence: fenceForStale holds the write side while it drains
	// queued ingest and snapshots WAL marks, and writers hold the read
	// side wherever a fan-out's copies become visible to that drain —
	// and only there:
	//
	//   - A synchronous Reporter's fan-out writes straight through to
	//     its owners' logs, so it holds the read side for the whole
	//     fan-out (Reporter.send).
	//   - An engine Reporter's fan-out only STAGES: the copies sit in the producer's own chunks, which no
	//     drain can reach, so staging takes no lock — a per-report
	//     RLock was a cache line every producer bounced. The copies
	//     become visible when the chunks are queued, and that — the
	//     coupled flush after a fan-out that filled a chunk, and
	//     Reporter.Flush — runs under the read side, all shards'
	//     chunks as one event (Submitter.SetCoupled: no chunk goes out
	//     from inside a fan-out).
	//
	// So when marks are read every replicated op is wholly staged (on
	// no owner's queue: above all marks), wholly queued (the fence's
	// drain pushes it onto every owner's log: below all marks) or
	// wholly logged — no op can be logged on one owner below its mark
	// but on another above it, which is exactly the asymmetry that
	// would corrupt the appendExclusion multiset diff (an excluded op
	// missing from the replay stream silently eats a later same-payload
	// op the target never saw).
	//
	// The other half of the fence needs no lock either: a fan-out decides
	// its whole skip set before it stages or writes anything (see
	// Reporter.fan), and the fence takes marks and bumps the epoch
	// BEFORE the unreachable flag flips. A fan-out that skips a
	// collector therefore saw the flag, hence runs after the marks and
	// the bump: its surviving copies are staged — and later logged and
	// epoch-tagged — above them, inside the skipped collector's replay
	// window. One that did not skip it staged a copy for it too; queued
	// after the flag, that copy is an in-flight op the target applies
	// while flagged down, which walSelf accounts for.
	//
	// AddCollector holds the write side too, so a synchronous fan-out
	// reads the member list under the read side it already holds.
	//
	// Lock order: fenceMu strictly before mu, everywhere.
	fenceMu sync.RWMutex
	// walSelf[target] is the target's OWN log LSN at the same instant:
	// everything the target logged above it — in-flight ops applied
	// while flagged down, and all post-restore fan-out — it already
	// holds, so Rebalance multiset-subtracts those entries from the
	// peers' replay streams instead of appending them twice.
	walSelf map[int]uint64
	// fullResync forces Rebalance to ignore staleness windows and replay
	// whole peer snapshots (the pre-incremental behaviour); benchmarks
	// use it to measure what epoch tracking saves.
	fullResync bool
	// chaos, when enabled (EnableChaos), is the deterministic fault-
	// injection plane: per-link partitions and per-collector disk faults.
	// Installed before any traffic (like WithWAL), so the plain field
	// reads on the fan-out hot path never race.
	chaos *chaos.Plane
	// retries holds per-target resync retry state under the rebalance
	// retry/backoff contract; retryRNG jitters the backoff (seeded, so a
	// chaos run reproduces from its logged seed). Guarded by mu.
	retries  map[int]*resyncRetry
	retryRNG *rand.Rand
	// autoRebalance opts into rebalancing after a chaos heal; healArmed
	// records that a heal happened since the last successful rebalance.
	// Guarded by mu.
	autoRebalance bool
	healArmed     bool
}

// resyncRetry is one stale target's retry/backoff state: attempts made
// and the obs.Nanotime deadline before the next one.
type resyncRetry struct {
	attempts int
	nextAt   int64
}

// NewHACluster builds n identical collectors replicating every key to
// r of them. r = 1 reproduces Cluster's single-owner behaviour (but
// over the rendezvous ring, so membership can still change); r ≥ 2
// survives collector failure without losing acknowledged reports.
func NewHACluster(n, r int, opts Options) (*HACluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dta: cluster size %d < 1", n)
	}
	if n > ha.MaxMembers {
		return nil, fmt.Errorf("dta: cluster size %d exceeds %d", n, ha.MaxMembers)
	}
	if r < 1 || r > ha.MaxReplicas {
		return nil, fmt.Errorf("dta: replication factor %d out of range [1,%d]", r, ha.MaxReplicas)
	}
	if r > n {
		return nil, fmt.Errorf("dta: replication factor %d exceeds cluster size %d", r, n)
	}
	c := &HACluster{
		opts:      opts,
		r:         r,
		ring:      ha.NewRing(n),
		telemetry: newTelemetry(opts),
		causeOf:   make(map[int]uint64),
		stale:     make(map[int]uint64),
		downAt:    make(map[int]uint64),
		walMark:   make(map[int]map[int]uint64),
		walSelf:   make(map[int]uint64),
	}
	c.health = ha.NewHealthScoped(c.reg.Scope())
	for i := 0; i < n; i++ {
		o := opts
		o.Seed = opts.Seed + int64(i)
		sys, err := c.newMember(i, o)
		if err != nil {
			return nil, err
		}
		if _, err := c.attach(sys); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newMember builds collector id's System registered under the cluster's
// shared telemetry registry.
func (c *HACluster) newMember(id int, o Options) (*System, error) {
	return newSystem(o, &c.telemetry, int16(id))
}

// emit publishes one HA-component flight-recorder event for collector i
// (-1 = cluster-wide). Nil-safe: with telemetry off it is one branch.
func (c *HACluster) emit(i int, typ journal.Type, sev journal.Severity, cause, a1, a2, a3 uint64) {
	journal.Emitter{J: c.jr, Comp: journal.CompHA, Collector: int16(i)}.Emit(typ, sev, cause, a1, a2, a3)
}

// readRepairEventGap spaces read-repair journal events: a verification
// sweep over a divergent store repairs per query, and one representative
// event per gap (with the cumulative count) is plenty.
const readRepairEventGap = 100 * time.Millisecond

// noteReadRepair publishes a rate-gated read-repair event: repaired
// replicas this query in Arg1, the cumulative count in Arg2.
func (c *HACluster) noteReadRepair(repaired int) {
	if repaired == 0 || c.jr == nil || !c.rrGate.Allow(readRepairEventGap) {
		return
	}
	c.emit(-1, journal.EvReadRepair, journal.SevInfo, 0, uint64(repaired), c.health.Snapshot().ReadRepairs, 0)
}

// attach registers a collector system and turns on its device's dirty
// tags, so every write is epoch-tagged for incremental resync. Called
// before the system sees any traffic. It refuses a system unlike member
// 0: a replicated write and a failover read each plan once for all their
// owners.
func (c *HACluster) attach(sys *System) (int, error) {
	id := len(c.systems)
	if id > 0 {
		if err := checkMember(c.systems[0], sys, id); err != nil {
			return 0, err
		}
	}
	tk := ha.NewTracker(c.health, sys.Host().Listener())
	c.systems = append(c.systems, sys)
	c.trackers = append(c.trackers, tk)
	return id, nil
}

// checkMember refuses collector id unless its stores have member 0's
// geometry, so that slots planned against one index the other: Key-Write
// and Key-Increment through Translator.PlansLike, Postcarding and Append
// by configuration. Members are built from one Options value; a mismatch
// is a construction bug, reported rather than left to show as diverging
// stores.
func checkMember(first, sys *System, id int) error {
	a, b := first.tr.Config(), sys.tr.Config()
	alike := first.tr.PlansLike(sys.tr) && (a.Postcarding == nil) == (b.Postcarding == nil) && (a.Append == nil) == (b.Append == nil)
	if p, q := a.Postcarding, b.Postcarding; alike && p != nil {
		alike = p.Chunks == q.Chunks && p.Hops == q.Hops && p.SlotBits == q.SlotBits && slices.Equal(p.Values, q.Values)
	}
	if alike && a.Append != nil {
		alike = *a.Append == *b.Append
	}
	if !alike {
		return fmt.Errorf("dta: collector %d's store geometry differs from collector 0's: HA members must plan alike", id)
	}
	return nil
}

// capture snapshots collector id's stores together with the replication
// metadata resync needs: Append head counts (ring-suffix replay) and
// dirty-epoch tags (incremental replay).
func (c *HACluster) capture(id int) *snapshot.Snapshot {
	s := snapshot.Capture(c.systems[id].Host())
	if b := c.systems[id].Translator().AppendBatcher(); b != nil {
		s.AppendHeads = b.WrittenCounts(nil)
	}
	if tk := c.trackers[id]; tk != nil {
		s.KeyWriteTags = tk.Tags("keywrite")
		s.KeyIncTags = tk.Tags("keyincrement")
		s.PostcardTags = tk.Tags("postcarding")
		s.TagBlockBytes = rdma.TagBlockBytes
	}
	return s
}

// Size returns the number of collectors ever attached (including
// decommissioned ones, whose Systems stay inspectable).
func (c *HACluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.systems)
}

// System returns collector i (direct inspection, Append polling).
func (c *HACluster) System(i int) *System {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.systems[i]
}

// Owners returns the R ring owners of key, primary first.
func (c *HACluster) Owners(key Key) []int {
	return c.ring.Owners(key[:], c.r, nil)
}

// OwnersOfList returns the R ring owners of an Append list, primary
// first.
func (c *HACluster) OwnersOfList(list uint32) []int {
	return c.ring.OwnersOfList(list, c.r, nil)
}

// owners is the allocation-free variant for hot paths.
func (c *HACluster) owners(key []byte, out []int) []int {
	return c.ring.Owners(key, c.r, out)
}

// ownersOf is the owner set rep fans out to: its key's, or for an
// Append its list's.
func (c *HACluster) ownersOf(rep *wire.Report, out []int) []int {
	if rep.Header.Primitive == wire.PrimAppend {
		return c.ring.OwnersOfList(rep.Append.ListID, c.r, out)
	}
	return c.owners(routeKey(rep)[:], out)
}

// HAStats snapshots the degradation counters.
func (c *HACluster) HAStats() HAStats { return c.health.Snapshot() }

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
	if i < 0 || i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	if c.health.IsDown(i) {
		return nil
	}
	// One causality ID spans the whole failure→recovery arc: SetDown and
	// its fence here, SetUp, the Rebalance resync that heals i, and the
	// post-resync checkpoint all chain under it (see causeOf).
	cause := c.jr.NewCause()
	c.causeOf[i] = cause
	c.emit(i, journal.EvSetDown, journal.SevWarn, cause, c.health.Epoch(), 0, 0)
	c.fenceForStale(i, cause)
	c.downAt[i] = c.health.BumpEpoch()
	c.emit(i, journal.EvEpochBump, journal.SevInfo, cause, c.downAt[i], 0, 0)
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
	_, hasMarks := c.walMark[i]
	_, wasStale := c.stale[i]
	if hasMarks || wasStale {
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
		c.walSelf[i] = w.LastLSN()
	}
	m := make(map[int]uint64)
	for _, p := range c.ring.Members() {
		if p == i {
			continue
		}
		if w := c.systems[p].wal; w != nil {
			m[p] = w.LastLSN()
		}
	}
	c.walMark[i] = m
	c.emit(i, journal.EvWALFence, journal.SevInfo, cause, c.walSelf[i], uint64(len(m)), 0)
}

// SetUp revives collector i. It comes back stale — it missed every
// write while down, so queries prefer its peers — until Rebalance
// resynchronises it (replaying only what was written since it failed).
func (c *HACluster) SetUp(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	if !c.health.IsDown(i) {
		return nil
	}
	if err := c.health.SetUp(i); err != nil {
		return err
	}
	since := c.downAt[i] // 0 (replay everything) when the failure epoch is unknown
	delete(c.downAt, i)
	// A collector that flapped without an intervening Rebalance keeps
	// its oldest window: it still misses writes from the first failure.
	if cur, ok := c.stale[i]; !ok || since < cur {
		c.stale[i] = since
	}
	c.emit(i, journal.EvSetUp, journal.SevInfo, c.causeOf[i], c.stale[i], 0, 0)
	return nil
}

// EnableChaos attaches a deterministic fault-injection plane to the
// cluster: per-link partitions (PartitionReporter, PartitionPeers),
// per-collector disk faults (SlowDisk, and WrapFile wrapping of every
// WAL segment) and clock skew (SetClockSkew). Call it before WithWAL —
// segment files are wrapped at open — and before any traffic, like
// WithWAL itself. Idempotent; returns the plane.
func (c *HACluster) EnableChaos(seed int64) (*chaos.Plane, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos != nil {
		return c.chaos, nil
	}
	if c.walDir != "" {
		return nil, errors.New("dta: EnableChaos must run before WithWAL (WAL segment files are fault-wrapped at open)")
	}
	c.chaos = chaos.NewPlane(seed)
	c.retryRNG = rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	return c.chaos, nil
}

// Chaos returns the attached fault plane (nil when chaos is off).
func (c *HACluster) Chaos() *chaos.Plane {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.chaos
}

// ChaosActive reports whether any chaos link (reporter or peer) is
// currently cut. Nil-safe with chaos off.
func (c *HACluster) ChaosActive() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.chaos.AnyCut()
}

// unreachable reports whether fan-out writers must skip collector o:
// marked down, or its reporter→collector link is cut by the chaos
// plane. Hot path — one atomic load, plus a nil check when chaos is
// off.
func (c *HACluster) unreachable(o int) bool {
	if c.health.IsDown(o) {
		return true
	}
	return c.chaos.ReporterCut(o)
}

// PartitionReporter cuts the reporter→collector i link: fan-out writers
// skip i (counted as degraded, like a down replica) while queries and
// resync still reach it — the asymmetric half of a network partition.
// Safe mid-run. The same fence as SetDown runs first (WAL watermarks,
// then the epoch bump, then the cut), so every write i misses lands
// inside its replay window; unlike SetDown there is no SetUp moment, so
// i is marked stale immediately.
func (c *HACluster) PartitionReporter(i int) error {
	c.fenceMu.Lock()
	defer c.fenceMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos == nil {
		return errors.New("dta: chaos plane not enabled (EnableChaos)")
	}
	if i < 0 || i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	if c.chaos.ReporterCut(i) {
		return nil
	}
	// The partition joins the collector's existing failure arc if one is
	// open (a flapping collector), else mints a fresh one.
	cause := c.causeOf[i]
	if cause == 0 {
		cause = c.jr.NewCause()
		c.causeOf[i] = cause
	}
	c.emit(i, journal.EvPartition, journal.SevWarn, cause, 0, 0, 0)
	c.fenceForStale(i, cause)
	epoch := c.health.BumpEpoch()
	c.emit(i, journal.EvEpochBump, journal.SevInfo, cause, epoch, 0, 0)
	// Stale from the bumped epoch (a collector already stale keeps its
	// older window — it still misses writes from the first fault).
	if cur, ok := c.stale[i]; !ok || epoch < cur {
		c.stale[i] = epoch
	}
	// Cut LAST, mirroring SetDown's bump-before-flag ordering: a fan-out
	// that skips i observed the cut, hence the bump, so every block it
	// tags on any replica carries an epoch inside i's replay window.
	c.chaos.CutReporter(i)
	return nil
}

// HealReporter restores the reporter→collector i link. The collector
// stays stale — it missed every fan-out while cut — until Rebalance
// resynchronises it.
func (c *HACluster) HealReporter(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos == nil {
		return errors.New("dta: chaos plane not enabled (EnableChaos)")
	}
	if i < 0 || i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	if !c.chaos.ReporterCut(i) {
		return nil
	}
	c.chaos.HealReporter(i)
	c.emit(i, journal.EvPartitionHeal, journal.SevInfo, c.causeOf[i], 0, 0, 0)
	if c.autoRebalance {
		c.healArmed = true
	}
	return nil
}

// PartitionPeers cuts the peer↔peer resync path between collectors a
// and b (symmetric): neither can serve the other's resyncs until
// HealPeers. Fan-out writes are unaffected, so no fence is needed —
// Rebalance defers any stale target with a cut live peer instead of
// resyncing partially (see Rebalance).
func (c *HACluster) PartitionPeers(a, b int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos == nil {
		return errors.New("dta: chaos plane not enabled (EnableChaos)")
	}
	for _, i := range [2]int{a, b} {
		if i < 0 || i >= len(c.systems) {
			return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
		}
	}
	c.chaos.CutPeers(a, b)
	c.emit(a, journal.EvPartition, journal.SevWarn, 0, 1, uint64(b), 0)
	return nil
}

// HealPeers restores the resync path between a and b.
func (c *HACluster) HealPeers(a, b int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos == nil {
		return errors.New("dta: chaos plane not enabled (EnableChaos)")
	}
	for _, i := range [2]int{a, b} {
		if i < 0 || i >= len(c.systems) {
			return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
		}
	}
	c.chaos.HealPeers(a, b)
	c.emit(a, journal.EvPartitionHeal, journal.SevInfo, 0, 1, uint64(b), 0)
	if c.autoRebalance {
		c.healArmed = true
	}
	return nil
}

// SlowDisk injects fsync latency under collector i's WAL (0 heals). The
// writer's degraded-ack machinery (WALPolicy.DegradeFsync) reacts to
// the slowdown; the injection itself is journaled under CompWAL.
func (c *HACluster) SlowDisk(i int, fsyncLat time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos == nil {
		return errors.New("dta: chaos plane not enabled (EnableChaos)")
	}
	if i < 0 || i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	c.chaos.Disk(i).SetFsyncLatency(fsyncLat)
	sev := journal.SevWarn
	if fsyncLat == 0 {
		sev = journal.SevInfo
	}
	journal.Emitter{J: c.jr, Comp: journal.CompWAL, Collector: int16(i)}.
		Emit(journal.EvSlowDisk, sev, 0, uint64(fsyncLat), 0, 0)
	return nil
}

// SetClockSkew injects a signed clock offset on collector i (0 heals):
// its reports, token-bucket refills and WAL timestamps run off a
// shifted — across a step, non-monotonic — clock. Lives on the System,
// so it needs no chaos plane; journaled for the timeline either way.
func (c *HACluster) SetClockSkew(i int, d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	c.systems[i].setClockSkew(int64(d))
	sev := journal.SevWarn
	if d == 0 {
		sev = journal.SevInfo
	}
	c.emit(i, journal.EvClockSkew, sev, 0, uint64(d), 0, 0)
	return nil
}

// HealChaos clears injected faults on collector i, or on every
// collector when i < 0: reporter and peer cuts, disk faults, and clock
// skew (which lives on the System rather than the plane). Heals are
// journaled per fault kind.
func (c *HACluster) HealChaos(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	if i < 0 {
		for id := range c.systems {
			c.healOne(id)
		}
		return nil
	}
	c.healOne(i)
	return nil
}

// healOne clears collector i's faults under c.mu.
func (c *HACluster) healOne(i int) {
	if c.chaos != nil {
		if c.chaos.ReporterCut(i) {
			c.emit(i, journal.EvPartitionHeal, journal.SevInfo, c.causeOf[i], 0, 0, 0)
		}
		for j := range c.systems {
			if j != i && c.chaos.PeersCut(i, j) {
				c.emit(i, journal.EvPartitionHeal, journal.SevInfo, 0, 1, uint64(j), 0)
			}
		}
		if d := c.chaos.Disk(i); d.FsyncLatency() != 0 {
			journal.Emitter{J: c.jr, Comp: journal.CompWAL, Collector: int16(i)}.
				Emit(journal.EvSlowDisk, journal.SevInfo, 0, 0, 0, 0)
		}
		c.chaos.HealNode(i)
	}
	if c.systems[i].skew.Load() != 0 {
		c.systems[i].setClockSkew(0)
		c.emit(i, journal.EvClockSkew, journal.SevInfo, 0, 0, 0, 0)
	}
	if c.autoRebalance {
		c.healArmed = true
	}
}

// AddCollector grows the cluster by one collector and returns its
// index. The rendezvous ring reassigns only the keys the newcomer now
// owns; it starts stale and serves them after the next Rebalance.
// Requires no attached engine (engines have a fixed shard set: Close
// it, add, then attach a new one) and quiesced producers.
func (c *HACluster) AddCollector() (int, error) {
	c.fenceMu.Lock()
	defer c.fenceMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != nil && !c.eng.closed() {
		return 0, errors.New("dta: cannot add collector while an engine is attached (Close it first)")
	}
	id := len(c.systems)
	if id >= ha.MaxMembers {
		return 0, fmt.Errorf("dta: cluster size limit %d reached", ha.MaxMembers)
	}
	o := c.opts
	o.Seed = c.opts.Seed + int64(id)
	sys, err := c.newMember(id, o)
	if err != nil {
		return 0, err
	}
	if c.walDir != "" {
		if err := sys.WithWAL(walSubdir(c.walDir, id), c.memberWALPolicy(id, c.walPol)); err != nil {
			return 0, err
		}
		// Empty mark map: replay every peer's log from the beginning —
		// the newcomer missed the whole history.
		c.walMark[id] = make(map[int]uint64)
	}
	if _, err := c.attach(sys); err != nil {
		_ = sys.CloseWAL() // refused: nothing else holds sys, there is nothing to sync
		delete(c.walMark, id)
		return 0, err
	}
	if err := c.ring.Add(id); err != nil {
		return 0, err
	}
	epoch := c.health.BumpEpoch()
	c.stale[id] = 0 // the newcomer missed everything: full replay
	// The newcomer's join→resync arc chains like a rejoin's.
	c.causeOf[id] = c.jr.NewCause()
	c.emit(id, journal.EvMemberAdd, journal.SevInfo, c.causeOf[id], uint64(len(c.ring.Members())), epoch, 0)
	return id, nil
}

// Decommission shrinks the cluster: collector i leaves the ring and its
// keys move to their new owners. Its data is captured immediately and
// replayed into the survivors at the next Rebalance; until then every
// remaining collector is stale for the moved keys, so all are marked
// stale. Same quiescence requirements as AddCollector.
func (c *HACluster) Decommission(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != nil && !c.eng.closed() {
		return errors.New("dta: cannot decommission while an engine is attached (Close it first)")
	}
	if i < 0 || i >= len(c.systems) {
		return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
	}
	if err := c.ring.Remove(i); err != nil {
		return err
	}
	epoch := c.health.BumpEpoch()
	c.emit(i, journal.EvMemberRemove, journal.SevInfo, 0, uint64(len(c.ring.Members())), epoch, 0)
	delete(c.causeOf, i)
	if !c.health.IsDown(i) {
		if err := c.systems[i].Flush(); err != nil {
			return err
		}
		c.pending = append(c.pending, c.capture(i))
	}
	delete(c.stale, i)
	delete(c.downAt, i)
	// Decommission moves keys whose history lives only in the pending
	// capture, which carries no log; every survivor resyncs from
	// snapshots, so all log watermarks are void.
	c.walMark = make(map[int]map[int]uint64)
	c.walSelf = make(map[int]uint64)
	for _, id := range c.ring.Members() {
		if !c.health.IsDown(id) {
			// Moved keys may have been written at any time, so epoch
			// windows cannot narrow this replay: full resync.
			c.stale[id] = 0
		}
	}
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
	if c.retries == nil {
		c.retries = make(map[int]*resyncRetry)
	}
	r := c.retries[id]
	if r == nil {
		r = &resyncRetry{}
		c.retries[id] = r
	}
	backoff := resyncBackoffCap
	if r.attempts < 6 {
		if b := resyncBackoffBase << r.attempts; b < backoff {
			backoff = b
		}
	}
	if c.retryRNG != nil {
		backoff += time.Duration(c.retryRNG.Int63n(int64(backoff)/2 + 1))
	}
	r.attempts++
	r.nextAt = obs.Nanotime() + int64(backoff)
	c.health.RecordResyncRetry()
	// Open a trace resync window covering the backoff: any data-plane
	// trace completing while the retry is pending is tail-retained with
	// FResync, tying slow acks to the recovery in progress.
	c.trc.NoteResyncUntil(r.nextAt)
	c.emit(id, journal.EvResyncRetry, journal.SevWarn, cause, uint64(r.attempts), uint64(backoff), 0)
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
	} else {
		for _, id := range c.ring.Members() {
			if c.health.IsDown(id) {
				continue
			}
			if err := c.systems[id].Flush(); err != nil {
				return err
			}
		}
	}
	if len(c.stale) == 0 && len(c.pending) == 0 {
		return nil
	}
	// The rebalance pass gets its own chain; each target's resync events
	// chain under the cause its SetDown (or AddCollector) minted, so the
	// timeline links failure to healing per collector.
	rebCause := c.jr.NewCause()
	rebStart := obs.Nanotime()
	c.emit(-1, journal.EvRebalanceStart, journal.SevInfo, rebCause, uint64(len(c.stale)), 0, 0)
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
		if _, isStale := c.stale[id]; isStale {
			stalePeers = append(stalePeers, id)
		} else {
			freshPeers = append(freshPeers, id)
		}
	}
	caps := make(map[int]*snapshot.Snapshot, len(stalePeers)+len(freshPeers))
	for _, id := range append(append([]int(nil), stalePeers...), freshPeers...) {
		caps[id] = c.capture(id)
	}
	livePeers := append(append([]int(nil), stalePeers...), freshPeers...)
	var errs []error
	var resynced []int
	for id, since := range c.stale {
		if c.health.IsDown(id) {
			continue // still down: stays stale for its next rejoin
		}
		// A live peer partitioned from the target defers the WHOLE
		// resync: clearing the stale mark after a partial replay (some
		// peers' history unreachable) would lose that history for good.
		// The target stays stale under the retry/backoff contract and a
		// later Rebalance — after the partition heals, or routes around
		// it — converges it.
		if blocked := c.cutPeerOf(id, livePeers); blocked >= 0 {
			cause := c.causeOf[id]
			if cause == 0 {
				cause = rebCause
			}
			c.deferResync(id, cause)
			errs = append(errs, fmt.Errorf("dta: rebalance collector %d: peer %d partitioned, resync deferred", id, blocked))
			continue
		}
		// Log-shipping: when the target has recorded watermarks and
		// every live peer's log still retains its suffix, Append resync
		// replays the peers' logged operations (exact) instead of the
		// snapshots' index-aligned ring suffixes (approximate under
		// concurrent producers).
		marks, useLog := c.walMark[id]
		if c.fullResync || !useLog {
			useLog = false
		} else {
			useLog = c.logResyncReady(id, marks, livePeers)
		}
		var excl map[appendOpKey]int
		if useLog {
			var err error
			if excl, err = c.appendExclusion(id, c.walSelf[id]); err != nil {
				useLog = false // self-log unreadable: snapshot path
			}
		}
		opsFor := func(p int) ha.AppendOps {
			if !useLog {
				return nil
			}
			return c.appendOpsFrom(id, p, marks[p], excl)
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
			if c.fullResync {
				since = 0
			}
			// Resync events chain under the cause the target's failure
			// minted; targets stale for other reasons (reshard) join the
			// rebalance's own chain.
			cause := c.causeOf[id]
			if cause == 0 {
				cause = rebCause
			}
			c.emit(id, journal.EvResyncStart, journal.SevInfo, cause, since, uint64(len(peers)), 0)
			t0 := obs.Nanotime()
			st, err := ha.Resync(ha.Target{
				Host:       c.systems[id].Host(),
				Batcher:    c.systems[id].Translator().AppendBatcher(),
				Dirty:      c.trackers[id],
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
		delete(c.stale, id)
		delete(c.walMark, id)
		delete(c.walSelf, id)
		delete(c.retries, id)
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
		cause := c.causeOf[id]
		delete(c.causeOf, id)
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
	c.healArmed = false
	return nil
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
		for _, r := range c.retries {
			if r.nextAt > until {
				until = r.nextAt
			}
		}
		c.mu.RUnlock()
		if wait := until - obs.Nanotime(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
	}
	return err
}

// SetAutoRebalance opts the cluster into automatic rebalancing after a
// chaos heal: HealReporter/HealPeers/HealChaos arm it, and the next
// AutoRebalance call (from a driver at a safe barrier — producers
// quiesced) runs RebalanceUntilHealed. The heal itself cannot
// rebalance: it may land mid-ingest, and Rebalance requires quiescence.
func (c *HACluster) SetAutoRebalance(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.autoRebalance = on
}

// AutoRebalance runs RebalanceUntilHealed if armed (a chaos heal
// happened since the last successful rebalance); reports whether it ran
// and the result.
func (c *HACluster) AutoRebalance(budget int) (bool, error) {
	c.mu.RLock()
	armed := c.autoRebalance && c.healArmed
	c.mu.RUnlock()
	if !armed {
		return false, nil
	}
	return true, c.RebalanceUntilHealed(budget)
}

// Reporter attaches a synchronous reporter switch that fans every
// report out to all live owners.
func (c *HACluster) Reporter(switchID uint32) *Reporter {
	return &Reporter{switchID: switchID, hac: c}
}

// Engine attaches an async ingest engine with one shard per collector;
// its reporters fan every report out to all live owners. Rebalance
// uses the engine's Drain as its barrier.
func (c *HACluster) Engine(cfg EngineConfig) (*Engine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != nil && !c.eng.closed() {
		return nil, errors.New("dta: engine already attached")
	}
	e, err := newEngine(c.systems, nil, c, cfg)
	if err != nil {
		return nil, err
	}
	c.eng = e
	return e, nil
}

// replicaRead is one failover query between its stages. The three
// lookups read the way the fan-out writes: scan classifies the owners;
// the key is hashed once, against member 0's indexer (attach admits only
// members of one geometry, so the plan serves every owner); one byte is
// loaded from every live owner's planned lines before any is read, so
// the R × n cache misses overlap instead of queueing behind each owner's
// vote; then each owner answers from the planned slots, the answers are
// merged, and owners found diverging are repaired. Fixed-size so the
// no-divergence fast path allocates nothing.
type replicaRead struct {
	ob     [ha.MaxReplicas]int
	owners []int
	// live[i] is owner i's collector when it is up, nil when it is down;
	// staleRep and answered say whether a live owner is stale and whether
	// it had an answer.
	live     [ha.MaxReplicas]*System
	staleRep [ha.MaxReplicas]bool
	answered [ha.MaxReplicas]bool

	skipped         int // owners down or stale
	queried         int // live replicas consulted
	fresh           int // fresh replicas that answered
	primaryAnswered bool
}

// scan is the first stage of every failover query, under c.mu's read
// side: it classifies key's owners. Down owners are skipped; stale live
// owners ARE consulted — their divergence is exactly what read-repair
// heals — but marked so the merge can prefer fresh answers. planErr is
// what planning the query against member 0 returned (members hold stores
// of one geometry, so it speaks for every owner): a query that cannot be
// planned fails at its first live owner, and one with no live owner with
// ErrAllReplicasDown. On an error scan has unlocked and accounted the
// query.
func (c *HACluster) scan(rd *replicaRead, planErr error) error {
	for oi, o := range rd.owners {
		if c.health.IsDown(o) {
			rd.skipped++
			continue
		}
		if _, rd.staleRep[oi] = c.stale[o]; rd.staleRep[oi] {
			rd.skipped++
		}
		rd.live[oi] = c.systems[o]
		rd.queried++
		if planErr != nil {
			break
		}
	}
	if rd.queried == 0 {
		planErr = ErrAllReplicasDown
	}
	if planErr != nil {
		c.mu.RUnlock()
		c.record(rd)
	}
	return planErr
}

// note records owner oi's answer (or lack of one) for the merge.
func (rd *replicaRead) note(oi int, ok bool) {
	if !ok {
		return
	}
	rd.answered[oi] = true
	if !rd.staleRep[oi] {
		rd.fresh++
		if oi == 0 {
			rd.primaryAnswered = true
		}
	}
}

func (c *HACluster) record(rd *replicaRead) {
	c.health.RecordQuery(rd.skipped, rd.queried > 0, rd.primaryAnswered)
}

// plurality is the merge of Key-Write and Postcarding: the answer most
// owners gave, where fresh replicas outvote stale ones (stale answers —
// from replicas that missed writes while down — count only when no fresh
// replica has one) and ties favour the earliest answer in owner order:
// the primary when it answered, including a stale primary when only
// stale replicas answer. It returns the winning owner's index, or -1
// when nobody answered, and with it the owners to read-repair: every
// live replica whose answer differs from the winner's (observed
// divergence), plus live STALE replicas with no answer at all — a stale
// replica most likely missed the write while down. A live FRESH replica
// with no answer is deliberately left alone: the usual cause is a
// colliding key legitimately occupying the slot (last-writer-wins), and
// "repairing" it would resurrect the older key over the newer one and
// set up a repair ping-pong between the two.
func (rd *replicaRead) plurality(equal func(i, j int) bool) (best int, repair [ha.MaxReplicas]bool, repairs int) {
	useStale := rd.fresh == 0
	best, votes := -1, 0
	for i := range rd.owners {
		if !rd.answered[i] || rd.staleRep[i] != useStale {
			continue
		}
		v := 1
		for j := i + 1; j < len(rd.owners); j++ {
			if rd.answered[j] && rd.staleRep[j] == useStale && equal(i, j) {
				v++
			}
		}
		if v > votes { // ties keep the earlier owner: primary preference
			best, votes = i, v
		}
	}
	if best < 0 {
		return best, repair, 0
	}
	for i := range rd.owners { // answered or stale implies live
		if rd.answered[i] && i != best && !equal(i, best) || !rd.answered[i] && rd.staleRep[i] {
			repair[i] = true
			repairs++
		}
	}
	return best, repair, repairs
}

// repair is the last stage of a query that observed divergence: write
// applies the merged answer to each owner in set that is still up. It
// runs under the write lock, which orders repairs against other queries
// and Rebalance captures. Producers are a non-issue by contract, not by
// lock — queries were never safe concurrently with ingest (they read the
// same raw store buffers the writers mutate), so no acknowledged write
// can land between the merge and the repair.
func (c *HACluster) repair(rd *replicaRead, set *[ha.MaxReplicas]bool, write func(o int) error) {
	c.mu.Lock()
	repaired := 0
	for i, o := range rd.owners {
		if set[i] && !c.health.IsDown(o) && write(o) == nil {
			repaired++
		}
	}
	c.health.RecordReadRepair(repaired)
	c.mu.Unlock()
	c.noteReadRepair(repaired)
}

// markRepaired stamps read-repaired slots (size bytes each, at offset)
// in collector o's dirty tracker, so a later incremental resync treating
// o as a peer replays them.
func (c *HACluster) markRepaired(o int, region string, slots []uint64, offset func(slot uint64) int, size int) {
	if tk := c.trackers[o]; tk != nil {
		for _, slot := range slots {
			tk.MarkRange(region, offset(slot), size)
		}
	}
}

// LookupValue queries the Key-Write stores of every live owner of key
// and plurality-merges the answers (see plurality). Owners found
// disagreeing with the winner — and stale owners with no answer at all —
// are read-repaired: the winning value is written back into their slots
// before returning, so a failover query leaves the live replicas
// converged. Returns ErrAllReplicasDown when no owner is live.
func (c *HACluster) LookupValue(key Key, n int) ([]byte, bool, error) {
	var rd replicaRead
	var sb [keywrite.MaxRedundancy]uint64
	var slots []uint64
	var csum uint32
	var answers [ha.MaxReplicas][]byte
	rd.owners = c.owners(key[:], rd.ob[:0])
	c.mu.RLock()
	err := collector.ErrDisabled
	if kw := c.systems[0].Host().KeyWriteStore(); kw != nil {
		slots, csum, err = kw.Indexer().Plan(key, n, sb[:0])
	}
	if err = c.scan(&rd, err); err != nil {
		return nil, false, err
	}
	for _, sys := range rd.live {
		if sys != nil {
			sys.Host().KeyWriteStore().Touch(slots)
		}
	}
	for oi, sys := range rd.live {
		if sys != nil {
			res := sys.Host().KeyWriteStore().QueryAt(csum, slots, 1)
			answers[oi] = res.Data
			rd.note(oi, res.Found)
		}
	}
	c.record(&rd)
	best, repair, repairs := rd.plurality(func(i, j int) bool { return bytes.Equal(answers[i], answers[j]) })
	if best < 0 {
		c.mu.RUnlock()
		return nil, false, nil
	}
	// Copy the winner out of the store before releasing any lock: store
	// views are no longer stable once queries can write (a concurrent
	// query read-repairing a colliding slot would mutate the bytes under
	// the caller).
	var vbuf [wire.MaxData]byte
	winner := vbuf[:copy(vbuf[:], answers[best])]
	c.mu.RUnlock()
	if repairs > 0 {
		c.repair(&rd, &repair, func(o int) error {
			kw := c.systems[o].Host().KeyWriteStore()
			err := kw.Write(key, winner, n)
			if err == nil {
				c.markRepaired(o, "keywrite", slots, kw.Indexer().Offset, kw.Indexer().Config().SlotSize())
			}
			return err
		})
	}
	return winner, true, nil
}

// LookupPath queries the Postcarding stores of every live owner of key
// and plurality-merges the reconstructed paths exactly like LookupValue
// merges values; owners that disagree with (or, stale, lack) the winning
// path are read-repaired by re-encoding the winning chunk into their
// stores.
func (c *HACluster) LookupPath(key Key, n int) ([]uint32, bool, error) {
	var rd replicaRead
	var sb [postcarding.MaxRedundancy]uint64
	var chunks []uint64
	var answers [ha.MaxReplicas][]uint32
	rd.owners = c.owners(key[:], rd.ob[:0])
	c.mu.RLock()
	err := collector.ErrDisabled
	if pcs := c.systems[0].Host().PostcardingStore(); pcs != nil {
		chunks, err = pcs.Coder().Plan(key, n, sb[:0])
	}
	if err = c.scan(&rd, err); err != nil {
		return nil, false, err
	}
	for _, sys := range rd.live {
		if sys != nil {
			sys.Host().PostcardingStore().Touch(chunks)
		}
	}
	for oi, sys := range rd.live {
		if sys != nil {
			res := sys.Host().PostcardingStore().QueryAt(key, chunks)
			answers[oi] = res.Values
			rd.note(oi, res.Found)
		}
	}
	c.record(&rd)
	best, repair, repairs := rd.plurality(func(i, j int) bool { return slices.Equal(answers[i], answers[j]) })
	c.mu.RUnlock()
	if best < 0 {
		return nil, false, nil
	}
	winner := answers[best] // a heap copy from the store query, stable after unlock
	if repairs > 0 {
		c.repair(&rd, &repair, func(o int) error {
			pcs := c.systems[o].Host().PostcardingStore()
			err := pcs.Write(key, winner, len(winner), n)
			if err == nil {
				c.markRepaired(o, "postcarding", chunks, pcs.ChunkOffset, pcs.Coder().Config().ChunkBytes())
			}
			return err
		})
	}
	return winner, true, nil
}

// LookupCount returns the count-min estimate for key: the minimum over
// its live fresh owners (each owner received every increment for the
// key, so the cross-replica minimum keeps the never-undercount
// guarantee while discarding single-replica collision inflation).
// Stale replicas undercount and contribute to the estimate only when no
// fresh owner is live — but they are still consulted, and any stale
// replica reporting less than the fresh estimate is read-repaired by
// raising its counters to that estimate (never lowering, so other keys'
// guarantees survive).
func (c *HACluster) LookupCount(key Key, n int) (uint64, error) {
	var rd replicaRead
	var sb [keyincrement.MaxRedundancy]uint64
	var slots []uint64
	var counts [ha.MaxReplicas]uint64
	rd.owners = c.owners(key[:], rd.ob[:0])
	c.mu.RLock()
	err := collector.ErrDisabled
	if ki := c.systems[0].Host().KeyIncrementStore(); ki != nil {
		slots, err = ki.Indexer().Plan(key, n, sb[:0])
	}
	if err = c.scan(&rd, err); err != nil {
		return 0, err
	}
	for _, sys := range rd.live {
		if sys != nil {
			sys.Host().KeyIncrementStore().Touch(slots)
		}
	}
	for oi, sys := range rd.live {
		if sys != nil {
			counts[oi] = sys.Host().KeyIncrementStore().QueryAt(slots)
			rd.note(oi, true)
		}
	}
	c.record(&rd)
	useStale := rd.fresh == 0
	var min uint64
	first := true
	for i := range rd.owners {
		if rd.answered[i] && rd.staleRep[i] == useStale && (first || counts[i] < min) {
			min, first = counts[i], false
		}
	}
	// Read-repair: a stale replica reporting below the fresh estimate
	// missed increments while down; raise its counters to the estimate.
	// (Fresh replicas are never below the fresh minimum by definition,
	// and counters are never lowered — inflation is collision noise the
	// count-min contract already absorbs.)
	var repair [ha.MaxReplicas]bool
	repairs := 0
	if !useStale {
		for i := range rd.owners {
			if rd.answered[i] && rd.staleRep[i] && counts[i] < min {
				repair[i] = true
				repairs++
			}
		}
	}
	c.mu.RUnlock()
	if repairs > 0 {
		c.repair(&rd, &repair, func(o int) error {
			ki := c.systems[o].Host().KeyIncrementStore()
			err := ki.Raise(key, min, n)
			if err == nil {
				c.markRepaired(o, "keyincrement", slots, ki.Indexer().Offset, keyincrement.CounterSize)
			}
			return err
		})
	}
	return min, nil
}

// Poller returns an Append reader over the first live owner of list.
// Call Flush (or drain the engine) first to push out partial batches.
func (c *HACluster) Poller(list uint32) (*AppendPoller, error) {
	var ob [ha.MaxReplicas]int
	owners := c.ring.OwnersOfList(list, c.r, ob[:0])
	c.mu.RLock()
	defer c.mu.RUnlock()
	for pass := 0; pass < 2; pass++ {
		useStale := pass == 1
		for _, o := range owners {
			_, isStale := c.stale[o]
			if c.health.IsDown(o) || isStale != useStale {
				continue
			}
			return c.systems[o].Poller(int(list))
		}
	}
	return nil, ErrAllReplicasDown
}

// Flush flushes every live collector's translator state. Only for
// synchronous reporting; with an engine attached use Drain instead.
func (c *HACluster) Flush() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, id := range c.ring.Members() {
		if c.health.IsDown(id) {
			continue
		}
		if err := c.systems[id].Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stats sums counters across all collectors (including down ones:
// their pre-failure work still happened).
func (c *HACluster) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return aggregateStats(c.systems)
}
