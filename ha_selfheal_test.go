package dta

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"dta/internal/core/keywrite"
	"dta/internal/snapshot"
)

// plant writes val directly into collector o's Key-Write store (the
// bytes n translator RDMA WRITEs would deposit), manufacturing replica
// divergence without any failure choreography.
func plant(t *testing.T, c *HACluster, o int, k Key, val []byte, n int) {
	t.Helper()
	if err := c.System(o).Host().KeyWriteStore().Write(k, val, n); err != nil {
		t.Fatal(err)
	}
}

// makeStale flips collector o down and immediately up: live but marked
// stale until the next Rebalance.
func makeStale(t *testing.T, c *HACluster, o int) {
	t.Helper()
	if err := c.SetDown(o); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUp(o); err != nil {
		t.Fatal(err)
	}
}

// TestHAFailoverTieBreaking drives table-driven disagreement patterns
// over 2- and 3-replica owner sets: plurality wins, and ties must
// deterministically favour the primary owner — including when only
// stale replicas can answer and the primary is one of them (the
// contract documented on LookupValue).
func TestHAFailoverTieBreaking(t *testing.T) {
	A, B, C := keyData(101), keyData(102), keyData(103)
	type state struct {
		val   []byte // nil = no value planted
		stale bool
		down  bool
	}
	cases := []struct {
		name     string
		replicas []state
		want     []byte
	}{
		// 3-replica patterns.
		{"3way/all-agree", []state{{val: A}, {val: A}, {val: A}}, A},
		{"3way/three-way-tie-primary-wins", []state{{val: A}, {val: B}, {val: C}}, A},
		{"3way/plurality-beats-primary", []state{{val: A}, {val: B}, {val: B}}, B},
		{"3way/primary-in-majority", []state{{val: A}, {val: A}, {val: B}}, A},
		{"3way/primary-down-next-owner-breaks-tie", []state{{val: A, down: true}, {val: B}, {val: C}}, B},
		{"3way/stale-primary-fresh-tie", []state{{val: A, stale: true}, {val: B}, {val: C}}, B},
		{"3way/stale-primary-outvoted-by-one-fresh", []state{{val: A, stale: true}, {val: B}, {}}, B},
		{"3way/all-stale-tie-primary-wins", []state{{val: A, stale: true}, {val: B, stale: true}, {val: C, stale: true}}, A},
		{"3way/only-stale-primary-has-answer", []state{{val: A, stale: true}, {}, {}}, A},
		// 2-replica patterns.
		{"2way/tie-primary-wins", []state{{val: A}, {val: B}}, A},
		{"2way/fresh-outvotes-stale-primary", []state{{val: A, stale: true}, {val: B}}, B},
		{"2way/both-stale-primary-wins", []state{{val: A, stale: true}, {val: B, stale: true}}, A},
		{"2way/primary-down", []state{{val: A, down: true}, {val: B}}, B},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := len(tc.replicas)
			c, err := NewHACluster(r, r, haOptions())
			if err != nil {
				t.Fatal(err)
			}
			k := KeyFromUint64(77)
			owners := c.Owners(k)
			for i, st := range tc.replicas {
				if st.val != nil {
					plant(t, c, owners[i], k, st.val, 2)
				}
				if st.stale {
					makeStale(t, c, owners[i])
				}
				if st.down {
					if err := c.SetDown(owners[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, ok, err := c.LookupValue(k, 2)
			if err != nil || !ok || !bytes.Equal(got, tc.want) {
				t.Fatalf("LookupValue = %v %v %v, want %v", got, ok, err, tc.want)
			}
			// Acceptance: a failover query that observed divergence must
			// leave every live replica converged on the winner —
			// verified by direct slot reads against each system. Fresh
			// replicas that had NO answer are exempt: repairing those
			// would resurrect collision-evicted keys (see repairSet), so
			// the query leaves them alone.
			for i, st := range tc.replicas {
				if st.down || (st.val == nil && !st.stale) {
					continue
				}
				direct, ok, err := c.System(owners[i]).LookupValue(k, 2)
				if err != nil || !ok || !bytes.Equal(direct, tc.want) {
					t.Errorf("replica %d not converged: %v %v %v, want %v", owners[i], direct, ok, err, tc.want)
				}
			}
		})
	}
}

// TestHAReadRepairCountsAndCounters exercises read-repair on the other
// two queryable primitives: a stale replica that missed postcards gets
// the winning chunk re-encoded into it, and one that missed increments
// gets its counters raised to the fresh estimate — never lowered.
func TestHAReadRepairCountsAndCounters(t *testing.T) {
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	k := KeyFromUint64(9)
	owners := c.Owners(k)
	victim := owners[0]
	if err := rep.Increment(k, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDown(victim); err != nil {
		t.Fatal(err)
	}
	// Missed while down: 4 more increments and the whole postcard path.
	if err := rep.Increment(k, 4, 2); err != nil {
		t.Fatal(err)
	}
	for hop := 0; hop < 5; hop++ {
		if err := rep.Postcard(k, hop, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUp(victim); err != nil {
		t.Fatal(err)
	}

	if count, err := c.LookupCount(k, 2); err != nil || count != 7 {
		t.Fatalf("failover count = %d %v, want 7", count, err)
	}
	// The repaired stale replica now reports the full estimate directly.
	if direct, err := c.System(victim).LookupCount(k, 2); err != nil || direct < 7 {
		t.Errorf("victim count after read-repair = %d %v, want >= 7", direct, err)
	}

	path, ok, err := c.LookupPath(k, 1)
	if err != nil || !ok || len(path) != 5 {
		t.Fatalf("failover path = %v %v %v", path, ok, err)
	}
	direct, ok, err := c.System(victim).LookupPath(k, 1)
	if err != nil || !ok || len(direct) != 5 {
		t.Fatalf("victim path after read-repair = %v %v %v", direct, ok, err)
	}
	for i := range path {
		if direct[i] != path[i] {
			t.Errorf("victim hop %d = %d, want %d", i, direct[i], path[i])
		}
	}
	if st := c.HAStats(); st.ReadRepairs < 2 {
		t.Errorf("read-repairs = %d, want >= 2 (count + path): %+v", st.ReadRepairs, st)
	}
}

// TestHAAppendResync is the Append-list recovery scenario: a collector
// misses appends while down, rejoins, and Rebalance replays exactly the
// ring suffix it missed from a surviving replica — restoring both the
// entries and the translator head pointer. A single reporter keeps the
// replicas' arrival order identical, so the comparison is exact.
func TestHAAppendResync(t *testing.T) {
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	const list = uint32(1)
	owners := c.OwnersOfList(list)
	victim, survivor := owners[0], owners[1]
	entry := func(i int) []byte {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(i))
		return e[:]
	}
	appendN := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.Append(list, entry(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(0, 18) // 4 full batches + a partial flushed below
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDown(victim); err != nil {
		t.Fatal(err)
	}
	appendN(18, 36) // the victim misses this whole suffix
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUp(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.systems[victim].Translator().AppendBatcher().Written(int(list)); got != 18 {
		t.Fatalf("victim written = %d before rebalance, want 18", got)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// Head pointer restored to the survivor's.
	want := c.systems[survivor].Translator().AppendBatcher().Written(int(list))
	if want != 36 {
		t.Fatalf("survivor written = %d, want 36", want)
	}
	if got := c.systems[victim].Translator().AppendBatcher().Written(int(list)); got != want {
		t.Errorf("victim written = %d after rebalance, want %d", got, want)
	}
	// Ring content recovered end to end.
	p, err := c.System(victim).Poller(int(list))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 36; i++ {
		if got := binary.BigEndian.Uint32(p.Poll()); got != uint32(i) {
			t.Fatalf("victim entry %d = %d after append resync", i, got)
		}
	}
	if st := c.HAStats(); st.AppendEntriesResynced < 18 {
		t.Errorf("append entries resynced = %d, want >= 18: %+v", st.AppendEntriesResynced, st)
	}
	// And the victim keeps appending at the right head afterwards.
	appendN(36, 40)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(p.Poll()); got != 36 {
		t.Errorf("post-resync append landed wrong: entry 36 = %d", got)
	}
}

// TestHARebalancePartialFailureRetry injects a resync failure (a
// pending snapshot with mismatched store geometry) into a Rebalance
// covering two stale collectors. The loop must attempt BOTH, aggregate
// both errors, and leave a retryable state: stale marks and pending
// snapshots intact, nothing half-cleared. Removing the poison and
// retrying must then fully converge.
func TestHARebalancePartialFailureRetry(t *testing.T) {
	c, err := NewHACluster(4, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	const keys = 200
	write := func(from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, keys/2)
	if err := c.SetDown(1); err != nil {
		t.Fatal(err)
	}
	write(keys/2, 3*keys/4)
	if err := c.SetUp(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDown(2); err != nil {
		t.Fatal(err)
	}
	write(3*keys/4, keys)
	if err := c.SetUp(2); err != nil {
		t.Fatal(err)
	}

	poison := &snapshot.Snapshot{
		KeyWrite:    &keywrite.Config{Slots: 16, DataSize: 4},
		KeyWriteBuf: make([]byte, (&keywrite.Config{Slots: 16, DataSize: 4}).BufferSize()),
	}
	c.mu.Lock()
	c.pending = append(c.pending, poison)
	c.mu.Unlock()

	err = c.Rebalance()
	if err == nil {
		t.Fatal("rebalance with poisoned pending snapshot succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "collector 1") || !strings.Contains(msg, "collector 2") {
		t.Errorf("error not aggregated across both stale collectors: %v", err)
	}
	c.mu.RLock()
	staleLeft, pendingLeft := len(c.stale), len(c.pending)
	c.mu.RUnlock()
	if staleLeft != 2 {
		t.Errorf("stale collectors after failed rebalance = %d, want 2 (retryable)", staleLeft)
	}
	if pendingLeft != 1 {
		t.Errorf("pending snapshots after failed rebalance = %d, want 1 (retained for retry)", pendingLeft)
	}

	// Drop the poison; the retry must fully recover both collectors.
	c.mu.Lock()
	c.pending = nil
	c.mu.Unlock()
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	staleLeft = len(c.stale)
	c.mu.RUnlock()
	if staleLeft != 0 {
		t.Errorf("stale collectors after retry = %d, want 0", staleLeft)
	}
	for i := uint64(0); i < keys; i++ {
		k := KeyFromUint64(i)
		for _, o := range c.Owners(k) {
			data, ok, err := c.System(o).LookupValue(k, 2)
			if err != nil || !ok || !bytes.Equal(data, keyData(i)) {
				t.Fatalf("key %d owner %d after retry: %v %v %v", i, o, data, ok, err)
			}
		}
	}
}

// TestHAIncrementalResyncReplaysFewer pins the epoch-window payoff: a
// rejoin that missed a small write suffix replays strictly fewer slots
// than a full snapshot replay of the same scenario, while recovering
// exactly the same data.
func TestHAIncrementalResyncReplaysFewer(t *testing.T) {
	run := func(full bool) (replayed, skipped uint64, c *HACluster) {
		t.Helper()
		c, err := NewHACluster(3, 2, haOptions())
		if err != nil {
			t.Fatal(err)
		}
		c.fullResync = full
		rep := c.Reporter(1)
		const keys = 2000
		for i := uint64(0); i < keys; i++ {
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				t.Fatal(err)
			}
		}
		const victim = 1
		if err := c.SetDown(victim); err != nil {
			t.Fatal(err)
		}
		for i := uint64(keys); i < keys+50; i++ { // small missed suffix
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.SetUp(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Rebalance(); err != nil {
			t.Fatal(err)
		}
		st := c.HAStats()
		return st.ResyncSlots, st.ResyncSlotsSkipped, c
	}
	fullSlots, _, _ := run(true)
	incSlots, incSkipped, c := run(false)
	if incSlots >= fullSlots {
		t.Errorf("incremental resync replayed %d slots, full replayed %d — want strictly fewer", incSlots, fullSlots)
	}
	if incSkipped == 0 {
		t.Error("incremental resync skipped no slots")
	}
	// The replay window must cover the whole missed suffix: every key
	// written while the victim was down is served by the victim itself
	// afterwards. (A small tolerance absorbs the store's own overwrite
	// collisions, which destroy keys regardless of resync mode; byte- or
	// per-key equality with full replay would be wrong anyway, since
	// full replay also imports peers' foreign-key slots that incremental
	// rightly skips.)
	owned, recovered := 0, 0
	for i := uint64(2000); i < 2050; i++ {
		k := KeyFromUint64(i)
		mine := false
		for _, o := range c.Owners(k) {
			if o == 1 {
				mine = true
			}
		}
		if !mine {
			continue
		}
		owned++
		if data, ok, err := c.System(1).LookupValue(k, 2); err == nil && ok && bytes.Equal(data, keyData(i)) {
			recovered++
		}
	}
	if owned == 0 {
		t.Fatal("victim owns none of the missed suffix keys; scenario degenerate")
	}
	if recovered < owned-2 {
		t.Errorf("victim recovered %d/%d missed-suffix keys after incremental resync", recovered, owned)
	}
}

// TestSyncReporterStructuredZeroAllocs pins the synchronous Reporter's
// staged-report path at zero allocations per report once warm, across
// all four primitives — the ROADMAP perf follow-on that brought
// System.Reporter onto the same fast path as an engine's Reporter.
func TestSyncReporterStructuredZeroAllocs(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	data := []byte{1, 2, 3, 4}
	for i := uint64(0); i < 5000; i++ { // warm translator buffers/caches
		if err := rep.KeyWrite(KeyFromUint64(i), data, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Increment(KeyFromUint64(i), 1, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Append(1, data); err != nil {
			t.Fatal(err)
		}
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(5000, func() {
		if err := rep.KeyWrite(KeyFromUint64(i), data, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Increment(KeyFromUint64(i), 1, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Append(1, data); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("sync structured reporter allocated %.2f/op, want 0", allocs)
	}
}
