package dta

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"dta/internal/chaos"
	"dta/internal/ha"
	"dta/internal/obs/journal"
	"dta/internal/snapshot"
	"dta/internal/wire"
)

// HAStats counts replication degradation events (degraded/lost writes,
// failover/failed queries, resyncs). See internal/ha for field docs.
type HAStats = ha.Stats

// ErrAllReplicasDown is returned by HACluster queries when every owner
// of the key is marked down.
var ErrAllReplicasDown = errors.New("dta: all replicas for key are down")

// HACluster is the multi-collector deployment (§7, "Supporting Multiple
// Collectors", extended): keys are partitioned across collectors by
// hash, and each may be replicated to R of them. Four mechanisms go
// beyond the paper's static partitioning:
//
//   - Replicated ownership. A rendezvous-hash ring maps every key (and
//     Append list) to R replica collectors; reporters fan each report
//     out to all live owners, and membership change moves only the keys
//     the joining/leaving collector gains or loses. R = 1 is the plain
//     partitioned cluster.
//   - Failure injection and failover. SetDown/SetUp flip a lock-free
//     per-collector health flag mid-run. Writers skip down replicas
//     (counting degraded and lost writes instead of failing — reports
//     are best-effort, as in the paper's rate limiter), and queries
//     fall back across surviving replicas with a plurality merge,
//     counting degraded and failover queries.
//   - Recovery and live resharding. A rejoining (SetUp) or newly added
//     (AddCollector) collector is marked stale — queries prefer its
//     peers — until Rebalance drains in-flight reports and merges its
//     peers' stores into it (internal/ha.Resync), after which it serves its
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
	// rrGate rate-limits read-repair events: a verification sweep can
	// repair thousands of slots, and one representative event per gap
	// (carrying the cumulative count) must not evict the failover chain.
	rrGate journal.Gate

	// mu guards systems growth, the collector records and pending
	// images; the write lock makes Rebalance (and read-repair store
	// writes) exclusive with queries.
	mu      sync.RWMutex
	systems []*System
	// state[i] is collector i's record (see collectorState). Indexed like
	// systems, and like systems it never shrinks.
	state []collectorState
	// pending holds in-place images of decommissioned collectors, which
	// nothing writes any more, to replay into their keys' new owners.
	pending []*snapshot.Snapshot
	eng     *Engine
	// walDir/walPol, when set (WithWAL), give every collector a write-
	// ahead log under walDir/collector-%03d and enable log-shipping
	// resync (see durability.go).
	walDir string
	walPol WALPolicy
	// chaos, when enabled (EnableChaos), is the deterministic fault-
	// injection plane: per-link partitions and per-collector disk faults.
	// Installed before any traffic (like WithWAL), so the plain field
	// reads on the fan-out hot path never race.
	chaos *chaos.Plane
	// retryRNG jitters the resync retry backoff (seeded, so a chaos run
	// reproduces from its logged seed). Guarded by mu.
	retryRNG *rand.Rand
}

// NewHACluster builds n identical collectors replicating every key to
// r of them. All members share one telemetry registry (Metrics), their
// series told apart by a collector="i" label. r = 1 gives every key a
// single owner, the paper's partitioned cluster; r ≥ 2 survives
// collector failure without losing acknowledged reports.
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
	}
	c.health = ha.NewHealthScoped(c.reg.Scope())
	for i := 0; i < n; i++ {
		sys, err := c.newMember(i, opts)
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
	c.systems = append(c.systems, sys)
	c.state = append(c.state, collectorState{tracker: ha.NewTracker(c.health, sys.Host().Listener())})
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

// checkCollector refuses a collector index outside [0, Size()). Called
// under c.mu.
func (c *HACluster) checkCollector(ids ...int) error {
	for _, i := range ids {
		if i < 0 || i >= len(c.systems) {
			return fmt.Errorf("dta: collector %d out of range [0,%d)", i, len(c.systems))
		}
	}
	return nil
}

// AddCollector grows the cluster by one collector and returns its
// index. The rendezvous ring reassigns only the keys the newcomer now
// owns; it starts stale and serves them after the next Rebalance.
// Requires no attached engine (engines have a fixed shard set: Close
// it, add, then attach a new one) and quiesced producers.
func (c *HACluster) AddCollector() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != nil && !c.eng.closed() {
		return 0, errors.New("dta: cannot add collector while an engine is attached (Close it first)")
	}
	id := len(c.systems)
	if id >= ha.MaxMembers {
		return 0, fmt.Errorf("dta: cluster size limit %d reached", ha.MaxMembers)
	}
	sys, err := c.newMember(id, c.opts)
	if err != nil {
		return 0, err
	}
	if c.walDir != "" {
		if c.chaos != nil {
			sys.fs = c.chaos.Disk(id)
		}
		if err := sys.WithWAL(walSubdir(c.walDir, id), c.walPol); err != nil {
			return 0, err
		}
	}
	if _, err := c.attach(sys); err != nil {
		_ = sys.CloseWAL() // refused: nothing else holds sys, there is nothing to sync
		return 0, err
	}
	if err := c.ring.Add(id); err != nil {
		return 0, err
	}
	epoch := c.health.BumpEpoch()
	s := &c.state[id]
	s.markStale(0) // the newcomer missed everything: full replay
	if c.walDir != "" {
		s.src = fromMarks // no marks: every peer's whole log
	}
	// The newcomer's join→resync arc chains like a rejoin's.
	s.cause = c.jr.NewCause()
	c.emit(id, journal.EvMemberAdd, journal.SevInfo, s.cause, uint64(len(c.ring.Members())), epoch, 0)
	return id, nil
}

// Decommission shrinks the cluster: collector i leaves the ring and its
// keys move to their new owners. Its stores, flushed and read in place
// (nothing routes to them any more), replay into the survivors at the
// next Rebalance; until then every remaining collector is stale for the
// moved keys, so all are marked stale. Same quiescence requirements as
// AddCollector.
func (c *HACluster) Decommission(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != nil && !c.eng.closed() {
		return errors.New("dta: cannot decommission while an engine is attached (Close it first)")
	}
	if err := c.checkCollector(i); err != nil {
		return err
	}
	if err := c.ring.Remove(i); err != nil {
		return err
	}
	epoch := c.health.BumpEpoch()
	c.emit(i, journal.EvMemberRemove, journal.SevInfo, 0, uint64(len(c.ring.Members())), epoch, 0)
	// The leaving collector's record starts over; its tracker stays wired
	// to its device.
	c.state[i] = collectorState{tracker: c.state[i].tracker}
	if !c.health.IsDown(i) {
		if err := c.systems[i].Flush(); err != nil {
			return err
		}
		c.pending = append(c.pending, c.image(i, false))
	}
	// Decommission moves keys whose history lives only in the pending
	// image, which carries no log; every survivor resyncs from
	// snapshots, so all log watermarks are void.
	for id := range c.state {
		s := &c.state[id]
		s.src, s.marks = fromSnapshots, nil
	}
	for _, id := range c.ring.Members() {
		if !c.health.IsDown(id) {
			// Moved keys may have been written at any time, so epoch
			// windows cannot narrow this replay: full resync.
			c.state[id].markStale(0)
		}
	}
	return nil
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
	e, err := newEngine(c.systems, c, cfg)
	if err != nil {
		return nil, err
	}
	c.eng = e
	return e, nil
}

// Flush flushes every live collector's translator state. Only for
// synchronous reporting; with an engine attached use Drain instead.
func (c *HACluster) Flush() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.flushLive()
}

// flushLive flushes every live ring member. Called under c.mu.
func (c *HACluster) flushLive() error {
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
// their pre-failure work still happened). MemInstrPerReport, a ratio, is
// averaged weighted by each collector's report count, so the Fig. 8
// metric means the same thing for a cluster as for one collector
// (summing ratios would overstate it by up to the cluster size).
func (c *HACluster) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total Stats
	var memInstr float64 // report-weighted sum of per-collector ratios
	for _, sys := range c.systems {
		st := sys.Stats()
		total.Reports += st.Reports
		total.RDMAWrites += st.RDMAWrites
		total.RDMAAtomics += st.RDMAAtomics
		total.RateDropped += st.RateDropped
		total.Resyncs += st.Resyncs
		total.PostcardEmits += st.PostcardEmits
		total.AppendFlushes += st.AppendFlushes
		memInstr += st.MemInstrPerReport * float64(st.Reports)
	}
	if total.Reports > 0 {
		total.MemInstrPerReport = memInstr / float64(total.Reports)
	}
	return total
}
