package ha

import (
	"fmt"
	"sync/atomic"

	"dta/internal/obs"
)

// MaxMembers bounds the number of collectors a Health view can track.
// Fixed capacity keeps every flag access a lock-free atomic load even
// while the cluster grows.
const MaxMembers = 64

// Stats counts degradation events. All counters are cumulative.
type Stats struct {
	// DegradedWrites counts reports that reached some but not all of
	// their R owners because the rest were down. The write is still
	// acknowledged: surviving replicas answer for it.
	DegradedWrites uint64
	// LostWrites counts reports whose owners were ALL down. Best-effort
	// semantics: the report is shed with a counter, like the translator's
	// rate limiter, not errored.
	LostWrites uint64
	// ReplicaSkips counts individual replica writes skipped because that
	// replica was down (DegradedWrites counts reports; this counts
	// misses, so it exceeds DegradedWrites when R > 2).
	ReplicaSkips uint64
	// DegradedQueries counts queries that skipped at least one down or
	// stale replica.
	DegradedQueries uint64
	// FailoverQueries counts queries answered by a non-primary replica
	// because the primary was down, stale, or had no answer.
	FailoverQueries uint64
	// FailedQueries counts queries with no live replica to ask.
	FailedQueries uint64
	// Resyncs counts replica resynchronisations (rejoin/add rebalances).
	Resyncs uint64
	// ReadRepairs counts replica stores written back by queries that
	// observed replicas disagreeing (read-repair): divergence detected
	// by a failover query is healed by that query instead of waiting
	// for the next Rebalance. One count per repaired replica store.
	ReadRepairs uint64
	// ResyncSlots counts store slots actually copied (or counters
	// raised) into stale collectors by resyncs.
	ResyncSlots uint64
	// ResyncSlotsSkipped counts slots incremental resync never scanned
	// because their block's last-write epoch predates the target's
	// staleness window. The ratio to ResyncSlots is what epoch-based
	// rebalance buys over full snapshot replay.
	ResyncSlotsSkipped uint64
	// AppendEntriesResynced counts Append ring entries replayed into
	// stale collectors from peer ring segments.
	AppendEntriesResynced uint64
	// ResyncRetries counts per-target resync attempts deferred with
	// backoff (unreachable peers or a failed resync) — the retry/backoff
	// contract's observable counter.
	ResyncRetries uint64
}

// Health is the cluster's failure-injection view: a lock-free up/down
// flag per collector plus degradation counters. Writers consult it to
// skip dead replicas; queries consult it to fail over. SetDown/SetUp
// are safe to call concurrently with writes and queries — that is the
// point: failures strike mid-run.
type Health struct {
	down [MaxMembers]atomic.Bool

	// epoch is the cluster staleness clock: a monotone counter bumped by
	// every membership or health transition (SetDown, AddCollector,
	// Decommission). Dirty trackers tag written blocks with the current
	// epoch, and incremental resync replays only blocks written at or
	// after the epoch a target went stale. Epoch 0 is reserved for
	// "never written", so the clock starts at 1.
	epoch atomic.Uint64

	// Degradation counters are obs primitives so the Snapshot view and
	// the Prometheus exposition read the same cells. The write/query
	// accounting paths (RecordWrite, RecordQuery) are hit concurrently
	// by every reporter and query goroutine, so their counters are
	// striped across cache lines; resync and read-repair events are rare
	// control-plane work on plain padded counters.
	degradedWrites  *obs.ShardedCounter
	lostWrites      *obs.ShardedCounter
	replicaSkips    *obs.ShardedCounter
	degradedQueries *obs.ShardedCounter
	failoverQueries *obs.ShardedCounter
	failedQueries   *obs.ShardedCounter
	resyncs         *obs.Counter
	readRepairs     *obs.Counter
	resyncSlots     *obs.Counter
	resyncSkipped   *obs.Counter
	appendResynced  *obs.Counter
	resyncRetries   *obs.Counter
}

// NewHealthScoped returns a view with every member up and its
// degradation counters (dta_ha_*) registered under the given obs scope.
// A nil scope keeps the counters working, unexposed.
func NewHealthScoped(sc *obs.Scope) *Health {
	h := &Health{
		degradedWrites:  sc.ShardedCounter("dta_ha_degraded_writes_total", "Reports that reached some but not all of their R owners."),
		lostWrites:      sc.ShardedCounter("dta_ha_lost_writes_total", "Reports whose owners were all down (shed best-effort)."),
		replicaSkips:    sc.ShardedCounter("dta_ha_replica_skips_total", "Individual replica writes skipped because the replica was down."),
		degradedQueries: sc.ShardedCounter("dta_ha_degraded_queries_total", "Queries that skipped at least one down or stale replica."),
		failoverQueries: sc.ShardedCounter("dta_ha_failover_queries_total", "Queries answered by a non-primary replica."),
		failedQueries:   sc.ShardedCounter("dta_ha_failed_queries_total", "Queries with no live replica to ask."),
		resyncs:         sc.Counter("dta_ha_resyncs_total", "Replica resynchronisations (rejoin/add rebalances)."),
		readRepairs:     sc.Counter("dta_ha_read_repairs_total", "Replica stores written back by divergence-observing queries."),
		resyncSlots:     sc.Counter("dta_ha_resync_slots_total", "Store slots copied or raised into stale collectors by resyncs."),
		resyncSkipped:   sc.Counter("dta_ha_resync_slots_skipped_total", "Slots incremental resync never scanned thanks to epoch filtering."),
		appendResynced:  sc.Counter("dta_ha_append_entries_resynced_total", "Append ring entries replayed into stale collectors."),
		resyncRetries:   sc.Counter("dta_ha_resync_retries_total", "Resync attempts deferred with backoff (unreachable peers or failure)."),
	}
	h.epoch.Store(1)
	// Read-time gauge, not a counter pair: SetDown/SetUp may race and
	// the flags are the single source of truth. Non-members read as up,
	// so scanning the full fixed capacity is exact for any cluster size.
	sc.GaugeFunc("dta_ha_down_replicas", "Collectors currently marked down.", func() float64 {
		n := 0
		for i := range h.down {
			if h.down[i].Load() {
				n++
			}
		}
		return float64(n)
	})
	return h
}

// Epoch returns the current staleness epoch. Safe concurrently with
// writers tagging blocks.
func (h *Health) Epoch() uint64 { return h.epoch.Load() }

// BumpEpoch advances the staleness clock and returns the new epoch.
func (h *Health) BumpEpoch() uint64 { return h.epoch.Add(1) }

func checkMember(i int) error {
	if i < 0 || i >= MaxMembers {
		return fmt.Errorf("ha: member %d out of range [0,%d)", i, MaxMembers)
	}
	return nil
}

// SetDown marks collector i failed: writers skip it, queries fail over.
func (h *Health) SetDown(i int) error {
	if err := checkMember(i); err != nil {
		return err
	}
	h.down[i].Store(true)
	return nil
}

// SetUp marks collector i reachable again. The caller is responsible
// for resyncing it (it missed every write while down).
func (h *Health) SetUp(i int) error {
	if err := checkMember(i); err != nil {
		return err
	}
	h.down[i].Store(false)
	return nil
}

// IsDown reports collector i's health. Out-of-range members read as up;
// ownership always comes from a Ring, which only holds valid members.
func (h *Health) IsDown(i int) bool {
	if i < 0 || i >= MaxMembers {
		return false
	}
	return h.down[i].Load()
}

// RecordWrite accounts one fanned-out report that reached live of its
// total owners.
func (h *Health) RecordWrite(live, total int) {
	if live >= total {
		return
	}
	h.replicaSkips.Add(uint64(total - live))
	if live == 0 {
		h.lostWrites.Add(1)
	} else {
		h.degradedWrites.Add(1)
	}
}

// RecordQuery accounts one query: skipped replicas (down or stale),
// whether any replica answered, and whether the primary did.
func (h *Health) RecordQuery(skipped int, answered, byPrimary bool) {
	if skipped > 0 {
		h.degradedQueries.Add(1)
	}
	if !answered {
		h.failedQueries.Add(1)
		return
	}
	if !byPrimary {
		h.failoverQueries.Add(1)
	}
}

// RecordResync accounts one replica resynchronisation and its replay
// volume.
func (h *Health) RecordResync(st *ResyncStats) {
	h.resyncs.Add(1)
	if st == nil {
		return
	}
	h.resyncSlots.Add(st.SlotsReplayed())
	h.resyncSkipped.Add(st.SlotsSkipped)
	h.appendResynced.Add(st.AppendEntries)
}

// RecordResyncRetry accounts one resync attempt deferred with backoff.
func (h *Health) RecordResyncRetry() {
	h.resyncRetries.Add(1)
}

// RecordReadRepair accounts replica stores fixed up by one divergence-
// observing query.
func (h *Health) RecordReadRepair(replicas int) {
	if replicas > 0 {
		h.readRepairs.Add(uint64(replicas))
	}
}

// Snapshot returns the current counters.
func (h *Health) Snapshot() Stats {
	return Stats{
		DegradedWrites:        h.degradedWrites.Load(),
		LostWrites:            h.lostWrites.Load(),
		ReplicaSkips:          h.replicaSkips.Load(),
		DegradedQueries:       h.degradedQueries.Load(),
		FailoverQueries:       h.failoverQueries.Load(),
		FailedQueries:         h.failedQueries.Load(),
		Resyncs:               h.resyncs.Load(),
		ReadRepairs:           h.readRepairs.Load(),
		ResyncSlots:           h.resyncSlots.Load(),
		ResyncSlotsSkipped:    h.resyncSkipped.Load(),
		AppendEntriesResynced: h.appendResynced.Load(),
		ResyncRetries:         h.resyncRetries.Load(),
	}
}
