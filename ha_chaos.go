package dta

import (
	"errors"
	"math/rand"
	"time"

	"dta/internal/chaos"
	"dta/internal/obs/journal"
)

// EnableChaos attaches a deterministic fault-injection plane to the
// cluster: per-link partitions (PartitionReporter, PartitionPeers),
// per-collector disk faults (SlowDisk; each collector's log and images
// are written through its chaos disk) and clock skew (SetClockSkew).
// Call it before WithWAL — which hands each collector its disk — and
// before any traffic, like WithWAL itself. seed seeds the jitter Rebalance adds to a deferred
// resync's retry backoff. Idempotent; returns the plane.
func (c *HACluster) EnableChaos(seed int64) (*chaos.Plane, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos != nil {
		return c.chaos, nil
	}
	if c.walDir != "" {
		return nil, errors.New("dta: EnableChaos must run before WithWAL (WithWAL hands each collector its chaos disk)")
	}
	c.chaos = chaos.NewPlane()
	c.retryRNG = rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	return c.chaos, nil
}

// checkChaos refuses a fault-plane call while no plane is attached, then
// checks its collector indices. Called under c.mu.
func (c *HACluster) checkChaos(ids ...int) error {
	if c.chaos == nil {
		return errors.New("dta: chaos plane not enabled (EnableChaos)")
	}
	return c.checkCollector(ids...)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkChaos(i); err != nil {
		return err
	}
	if c.chaos.ReporterCut(i) {
		return nil
	}
	// The partition joins the collector's existing failure arc if one is
	// open (a flapping collector), else mints a fresh one.
	s := &c.state[i]
	if s.cause == 0 {
		s.cause = c.jr.NewCause()
	}
	c.emit(i, journal.EvPartition, journal.SevWarn, s.cause, 0, 0, 0)
	c.fenceForStale(i, s.cause)
	epoch := c.health.BumpEpoch()
	c.emit(i, journal.EvEpochBump, journal.SevInfo, s.cause, epoch, 0, 0)
	// Stale from the bumped epoch (a collector already stale keeps its
	// older window — it still misses writes from the first fault).
	s.markStale(epoch)
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
	if err := c.checkChaos(i); err != nil {
		return err
	}
	if !c.chaos.ReporterCut(i) {
		return nil
	}
	c.chaos.HealReporter(i)
	c.emit(i, journal.EvPartitionHeal, journal.SevInfo, c.state[i].cause, 0, 0, 0)
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
	if err := c.checkChaos(a, b); err != nil {
		return err
	}
	c.chaos.CutPeers(a, b)
	c.emit(a, journal.EvPartition, journal.SevWarn, 0, 1, uint64(b), 0)
	return nil
}

// HealPeers restores the resync path between a and b.
func (c *HACluster) HealPeers(a, b int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkChaos(a, b); err != nil {
		return err
	}
	c.chaos.HealPeers(a, b)
	c.emit(a, journal.EvPartitionHeal, journal.SevInfo, 0, 1, uint64(b), 0)
	return nil
}

// SlowDisk injects fsync latency under collector i's WAL (0 heals). The
// writer's degraded-ack machinery (WALPolicy.DegradeFsync) reacts to
// the slowdown; the injection itself is journaled under CompWAL.
func (c *HACluster) SlowDisk(i int, fsyncLat time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkChaos(i); err != nil {
		return err
	}
	c.chaos.Disk(i).SetFsyncLatency(fsyncLat)
	sev := journal.SevWarn
	if fsyncLat == 0 {
		sev = journal.SevInfo
	}
	c.systems[i].walEmitter().Emit(journal.EvSlowDisk, sev, 0, uint64(fsyncLat), 0, 0)
	return nil
}

// SetClockSkew injects a signed clock offset on collector i (0 heals):
// its reports, token-bucket refills and WAL timestamps run off a
// shifted — across a step, non-monotonic — clock. Lives on the System,
// so it needs no chaos plane; journaled for the timeline either way.
func (c *HACluster) SetClockSkew(i int, d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkCollector(i); err != nil {
		return err
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
// collector when i is -1: reporter and peer cuts, disk faults, and clock
// skew (which lives on the System rather than the plane). Heals are
// journaled per fault kind.
func (c *HACluster) HealChaos(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i == -1 {
		for id := range c.systems {
			c.healOne(id)
		}
		return nil
	}
	if err := c.checkCollector(i); err != nil {
		return err
	}
	c.healOne(i)
	return nil
}

// healOne clears collector i's faults under c.mu.
func (c *HACluster) healOne(i int) {
	if c.chaos != nil {
		if c.chaos.ReporterCut(i) {
			c.emit(i, journal.EvPartitionHeal, journal.SevInfo, c.state[i].cause, 0, 0, 0)
		}
		for j := range c.systems {
			if j != i && c.chaos.PeersCut(i, j) {
				c.emit(i, journal.EvPartitionHeal, journal.SevInfo, 0, 1, uint64(j), 0)
			}
		}
		if d := c.chaos.Disk(i); d.FsyncLatency() != 0 {
			c.systems[i].walEmitter().Emit(journal.EvSlowDisk, journal.SevInfo, 0, 0, 0, 0)
		}
		c.chaos.HealNode(i)
	}
	if c.systems[i].skew.Load() != 0 {
		c.systems[i].setClockSkew(0)
		c.emit(i, journal.EvClockSkew, journal.SevInfo, 0, 0, 0, 0)
	}
}
