package dta

import (
	"testing"
)

// BenchmarkRebalance measures the resharding barrier for the canonical
// kill/rejoin scenario — a collector misses a small write suffix and
// rebalances back in — comparing full snapshot replay against the
// epoch-windowed incremental resync. It lives in package dta (not
// dta_test) to reach the fullResync knob and the stale mark directly:
// each iteration re-marks the victim stale instead of replaying the
// whole write history, so the benchmark isolates resync cost.
//
// slots-replayed/op is the figure of merit: incremental must replay
// strictly fewer slots than full for the same recovery.
func BenchmarkRebalance(b *testing.B) {
	setup := func(b *testing.B) (*HACluster, uint64) {
		b.Helper()
		c, err := NewHACluster(3, 2, Options{
			KeyWrite:     &KeyWriteOptions{Slots: 1 << 18, DataSize: 4},
			KeyIncrement: &KeyIncrementOptions{Slots: 1 << 16},
		})
		if err != nil {
			b.Fatal(err)
		}
		rep := c.Reporter(1)
		const keys = 20000
		for i := uint64(0); i < keys; i++ {
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				b.Fatal(err)
			}
			if err := rep.Increment(KeyFromUint64(i), 1, 2); err != nil {
				b.Fatal(err)
			}
		}
		const victim = 1
		if err := c.SetDown(victim); err != nil {
			b.Fatal(err)
		}
		window := c.health.Epoch() // the epoch the victim went stale at
		for i := uint64(keys); i < keys+200; i++ {
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				b.Fatal(err)
			}
			if err := rep.Increment(KeyFromUint64(i), 1, 2); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.SetUp(victim); err != nil {
			b.Fatal(err)
		}
		return c, window
	}
	for _, mode := range []struct {
		name string
		full bool
	}{{"FullReplay", true}, {"Incremental", false}} {
		b.Run(mode.name, func(b *testing.B) {
			c, window := setup(b)
			c.fullResync = mode.full
			before := c.HAStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Rebalance(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Re-open the victim's staleness window for the next
				// iteration without re-driving the workload.
				c.mu.Lock()
				c.state[1].markStale(window)
				c.mu.Unlock()
				b.StartTimer()
			}
			b.StopTimer()
			after := c.HAStats()
			b.ReportMetric(float64(after.ResyncSlots-before.ResyncSlots)/float64(b.N), "slots-replayed/op")
			b.ReportMetric(float64(after.ResyncSlotsSkipped-before.ResyncSlotsSkipped)/float64(b.N), "slots-skipped/op")
		})
	}
}
