package dta

import (
	"bytes"
	"slices"

	"dta/internal/core/keyincrement"
	"dta/internal/ha"
	"dta/internal/wire"
)

// The per-owner failover lookups as they stood before the read path
// planned once: each live owner is asked through System.Lookup*, which
// re-hashes the key and reads its slots before the next owner is
// consulted. Kept verbatim (names prefixed ref) as the reference
// TestHALookupMatchesPerOwnerReference compares the planned lookups
// against — answers, errors, HAStats, repaired bytes and dirty tags.

// refLookupState tracks one failover query across replicas.
type refLookupState struct {
	degraded        bool // some owner was down or stale
	queried         int  // live replicas consulted
	primaryAnswered bool
}

func (c *HACluster) refRecord(st *refLookupState) {
	skipped := 0
	if st.degraded {
		skipped = 1
	}
	c.health.RecordQuery(skipped, st.queried > 0, st.primaryAnswered)
}

// refScan is the per-owner view one failover query collects before
// merging: which owners are live, which of those are stale, and what
// each answered. Fixed-size so the no-divergence fast path allocates
// nothing.
type refScan struct {
	live     [ha.MaxReplicas]bool
	staleRep [ha.MaxReplicas]bool
	answered [ha.MaxReplicas]bool
}

// refScanOwner classifies owner index oi (collector o) and reports whether
// it should be consulted. Down owners are skipped; stale live owners ARE
// consulted — their divergence is exactly what read-repair heals — but
// marked so the merge can prefer fresh answers.
func (c *HACluster) refScanOwner(sc *refScan, st *refLookupState, oi, o int) bool {
	if c.health.IsDown(o) {
		st.degraded = true
		return false
	}
	isStale := c.state[o].stale
	if isStale {
		st.degraded = true
	}
	sc.live[oi] = true
	sc.staleRep[oi] = isStale
	st.queried++
	return true
}

// refMarkKeyWrite, refMarkKeyIncrement and refMarkPostcard stamp read-repaired
// slots in collector o's dirty tracker, so a later incremental resync
// treating o as a peer replays them.
func (c *HACluster) refMarkKeyWrite(o int, key Key, n int) {
	tk := c.state[o].tracker
	if tk == nil {
		return
	}
	x := c.systems[o].Host().KeyWriteStore().Indexer()
	size := x.Config().SlotSize()
	for i := 0; i < n; i++ {
		tk.MarkRange("keywrite", x.Offset(x.Slot(i, key)), size)
	}
}

func (c *HACluster) refMarkKeyIncrement(o int, key Key, n int) {
	tk := c.state[o].tracker
	if tk == nil {
		return
	}
	x := c.systems[o].Host().KeyIncrementStore().Indexer()
	for i := 0; i < n; i++ {
		tk.MarkRange("keyincrement", x.Offset(x.Slot(i, key)), keyincrement.CounterSize)
	}
}

func (c *HACluster) refMarkPostcard(o int, key Key, n int) {
	tk := c.state[o].tracker
	if tk == nil {
		return
	}
	pcs := c.systems[o].Host().PostcardingStore()
	size := pcs.Coder().Config().ChunkBytes()
	for j := 0; j < n; j++ {
		tk.MarkRange("postcarding", pcs.ChunkOffset(pcs.Coder().Chunk(j, key)), size)
	}
}

func (c *HACluster) refLookupValue(key Key, n int) ([]byte, bool, error) {
	var ob [ha.MaxReplicas]int
	owners := c.owners(key[:], ob[:0])
	c.mu.RLock()
	var st refLookupState
	var sc refScan
	var answers [ha.MaxReplicas][]byte
	fresh := 0
	for oi, o := range owners {
		if !c.refScanOwner(&sc, &st, oi, o) {
			continue
		}
		data, ok, err := c.systems[o].LookupValue(key, n)
		if err != nil {
			c.mu.RUnlock()
			c.refRecord(&st)
			return nil, false, err
		}
		if ok {
			answers[oi], sc.answered[oi] = data, true
			if !sc.staleRep[oi] {
				fresh++
				if oi == 0 {
					st.primaryAnswered = true
				}
			}
		}
	}
	c.refRecord(&st)
	if st.queried == 0 {
		c.mu.RUnlock()
		return nil, false, ErrAllReplicasDown
	}
	// Merge over fresh answers when any exist; stale answers (from
	// replicas that missed writes while down) are a last resort.
	useStale := fresh == 0
	best, votes := -1, 0
	for i := range owners {
		if !sc.answered[i] || sc.staleRep[i] != useStale {
			continue
		}
		v := 1
		for j := i + 1; j < len(owners); j++ {
			if sc.answered[j] && sc.staleRep[j] == useStale && bytes.Equal(answers[i], answers[j]) {
				v++
			}
		}
		if v > votes { // ties keep the earlier owner: primary preference
			best, votes = i, v
		}
	}
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
	repair, repairs := refRepairSet(&sc, len(owners), func(i int) bool { return bytes.Equal(answers[i], winner) })
	if repairs == 0 {
		c.mu.RUnlock()
		return winner, true, nil
	}
	// Read-repair under the write lock: the write lock orders repairs
	// against other queries and Rebalance captures. Producers are a
	// non-issue by contract, not by lock — queries were never safe
	// concurrently with ingest (they read the same raw store buffers the
	// writers mutate), so no acknowledged write can land between the
	// merge above and the repair below.
	c.mu.RUnlock()
	c.mu.Lock()
	repaired := 0
	for i, o := range owners {
		if !repair[i] || c.health.IsDown(o) {
			continue
		}
		if kw := c.systems[o].Host().KeyWriteStore(); kw != nil {
			if err := kw.Write(key, winner, n); err == nil {
				c.refMarkKeyWrite(o, key, n)
				repaired++
			}
		}
	}
	c.health.RecordReadRepair(repaired)
	c.mu.Unlock()
	c.noteReadRepair(repaired)
	return winner, true, nil
}

// refRepairSet picks the replicas a divergence-observing query writes the
// winner back to: every live replica whose answer differs from the
// winner (observed divergence), plus live STALE replicas with no answer
// at all — a stale replica most likely missed the write while down. A
// live FRESH replica with no answer is deliberately left alone: the
// usual cause is a colliding key legitimately occupying the slot
// (last-writer-wins), and "repairing" it would resurrect the older key
// over the newer one and set up a repair ping-pong between the two.
func refRepairSet(sc *refScan, owners int, matches func(i int) bool) (repair [ha.MaxReplicas]bool, repairs int) {
	for i := 0; i < owners; i++ {
		if !sc.live[i] {
			continue
		}
		if sc.answered[i] && !matches(i) || !sc.answered[i] && sc.staleRep[i] {
			repair[i] = true
			repairs++
		}
	}
	return repair, repairs
}

func (c *HACluster) refLookupPath(key Key, n int) ([]uint32, bool, error) {
	var ob [ha.MaxReplicas]int
	owners := c.owners(key[:], ob[:0])
	c.mu.RLock()
	var st refLookupState
	var sc refScan
	var answers [ha.MaxReplicas][]uint32
	fresh := 0
	for oi, o := range owners {
		if !c.refScanOwner(&sc, &st, oi, o) {
			continue
		}
		values, ok, err := c.systems[o].LookupPath(key, n)
		if err != nil {
			c.mu.RUnlock()
			c.refRecord(&st)
			return nil, false, err
		}
		if ok {
			answers[oi], sc.answered[oi] = values, true
			if !sc.staleRep[oi] {
				fresh++
				if oi == 0 {
					st.primaryAnswered = true
				}
			}
		}
	}
	c.refRecord(&st)
	if st.queried == 0 {
		c.mu.RUnlock()
		return nil, false, ErrAllReplicasDown
	}
	useStale := fresh == 0
	best, votes := -1, 0
	for i := range owners {
		if !sc.answered[i] || sc.staleRep[i] != useStale {
			continue
		}
		v := 1
		for j := i + 1; j < len(owners); j++ {
			if sc.answered[j] && sc.staleRep[j] == useStale && slices.Equal(answers[i], answers[j]) {
				v++
			}
		}
		if v > votes { // ties keep the earlier owner: primary preference
			best, votes = i, v
		}
	}
	if best < 0 {
		c.mu.RUnlock()
		return nil, false, nil
	}
	winner := answers[best] // a heap copy from the store query, stable after unlock
	repair, repairs := refRepairSet(&sc, len(owners), func(i int) bool { return slices.Equal(answers[i], winner) })
	c.mu.RUnlock()
	if repairs == 0 {
		return winner, true, nil
	}
	c.mu.Lock()
	repaired := 0
	for i, o := range owners {
		if !repair[i] || c.health.IsDown(o) {
			continue
		}
		if pcs := c.systems[o].Host().PostcardingStore(); pcs != nil {
			if err := pcs.Write(key, winner, len(winner), n); err == nil {
				c.refMarkPostcard(o, key, n)
				repaired++
			}
		}
	}
	c.health.RecordReadRepair(repaired)
	c.mu.Unlock()
	c.noteReadRepair(repaired)
	return winner, true, nil
}

func (c *HACluster) refLookupCount(key Key, n int) (uint64, error) {
	var ob [ha.MaxReplicas]int
	owners := c.owners(key[:], ob[:0])
	c.mu.RLock()
	var st refLookupState
	var sc refScan
	var counts [ha.MaxReplicas]uint64
	fresh := 0
	for oi, o := range owners {
		if !c.refScanOwner(&sc, &st, oi, o) {
			continue
		}
		count, err := c.systems[o].LookupCount(key, n)
		if err != nil {
			c.mu.RUnlock()
			c.refRecord(&st)
			return 0, err
		}
		counts[oi], sc.answered[oi] = count, true
		if !sc.staleRep[oi] {
			fresh++
			if oi == 0 {
				st.primaryAnswered = true
			}
		}
	}
	c.refRecord(&st)
	if st.queried == 0 {
		c.mu.RUnlock()
		return 0, ErrAllReplicasDown
	}
	useStale := fresh == 0
	var min uint64
	first := true
	for i := range owners {
		if !sc.answered[i] || sc.staleRep[i] != useStale {
			continue
		}
		if first || counts[i] < min {
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
		for i := range owners {
			if sc.live[i] && sc.staleRep[i] && counts[i] < min {
				repair[i] = true
				repairs++
			}
		}
	}
	c.mu.RUnlock()
	if repairs == 0 {
		return min, nil
	}
	c.mu.Lock()
	repaired := 0
	for i, o := range owners {
		if !repair[i] || c.health.IsDown(o) {
			continue
		}
		if ki := c.systems[o].Host().KeyIncrementStore(); ki != nil {
			if err := ki.Raise(key, min, n); err == nil {
				c.refMarkKeyIncrement(o, key, n)
				repaired++
			}
		}
	}
	c.health.RecordReadRepair(repaired)
	c.mu.Unlock()
	c.noteReadRepair(repaired)
	return min, nil
}
