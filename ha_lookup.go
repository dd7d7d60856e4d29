package dta

import (
	"bytes"
	"slices"
	"time"

	"dta/internal/collector"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/ha"
	"dta/internal/obs/journal"
	"dta/internal/wire"
)

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
		if rd.staleRep[oi] = c.state[o].stale; rd.staleRep[oi] {
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
	if tk := c.state[o].tracker; tk != nil {
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
			if c.health.IsDown(o) || c.state[o].stale != useStale {
				continue
			}
			return c.systems[o].Poller(int(list))
		}
	}
	return nil, ErrAllReplicasDown
}
