package dta

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dta/internal/wire"
)

// TestOrderIndependence: Key-Increment adds commute, so the counters a
// stream leaves must not depend on the order its records arrive in nor
// on where chunk boundaries fall — delivered one by one or in chunks,
// planned at staging or in place, with translator-side aggregation off
// or on (an aggregated delta reaches the same counters, only later).
// Each key keeps one redundancy, as a reporter configured per query
// does: aggregation merges a key's deltas under one redundancy, so mixed
// redundancies for one key are order-dependent by design. Key-Writes and
// Appends are order-dependent by design too and are not part of the
// property.
func TestOrderIndependence(t *testing.T) {
	for _, agg := range []int{0, 16} {
		t.Run(fmt.Sprintf("agg=%d", agg), func(t *testing.T) {
			opts := Options{KeyIncrement: &KeyIncrementOptions{Slots: 1 << 10, AggregationRows: agg}}
			rng := rand.New(rand.NewSource(5))
			recs := make([]wire.StagedReport, 3000)
			for i := range recs {
				k := uint64(rng.Intn(400))
				rep := wire.Report{
					Header:       wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
					KeyIncrement: wire.KeyIncrement{Redundancy: uint8(1 + k%3), Key: KeyFromUint64(k), Delta: uint64(1 + rng.Intn(1000))},
				}
				recs[i].Stage(&rep)
			}
			var want []byte
			for round := 0; round < 8; round++ {
				s, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				order := rng.Perm(len(recs))
				if round == 0 {
					for i := range order {
						order[i] = i
					}
				}
				sink := systemSink{s}
				chunk := make([]wire.StagedReport, 0, 96)
				var plan wire.ChunkPlan
				for a := 0; a < len(order); {
					b := min(a+1+rng.Intn(96), len(order))
					if round%4 == 3 {
						b = a + 1
					}
					chunk, plan = chunk[:0], wire.ChunkPlan{}
					for _, j := range order[a:b] {
						chunk = append(chunk, recs[j])
						if round%2 == 1 {
							sink.PlanStaged(&recs[j], &plan)
						}
					}
					if failed, err := sink.ProcessStagedBatch(chunk, nil, plan, nil, 0); failed != 0 {
						t.Fatalf("round %d: %d records failed: %v", round, failed, err)
					}
					a = b
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				got := s.Host().KeyIncrementStore().Buffer()
				if round == 0 {
					want = bytes.Clone(got)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: Key-Increment counters depend on arrival order or chunking", round)
				}
			}
		})
	}
}

// TestRebalanceOrderIndependence carries the same property across a
// failure and a Rebalance: on an HACluster(3, R=3) fed Key-Increments
// through an engine reporter, the counters every member holds after the
// last phase must not depend on the arrival order within each phase nor
// on the chunk size. The four phases are: before SetDown(1), while member
// 1 is down, after SetUp(1) and before Rebalance, after Rebalance. The
// member that was down must also equal its peers: Rebalance max-merges
// their counters, a superset of its own, into it.
func TestRebalanceOrderIndependence(t *testing.T) {
	for _, agg := range []int{0, 16} {
		t.Run(fmt.Sprintf("agg=%d", agg), func(t *testing.T) {
			opts := Options{KeyIncrement: &KeyIncrementOptions{Slots: 1 << 10, AggregationRows: agg}}
			rng := rand.New(rand.NewSource(36))
			type inc struct{ key, delta uint64 }
			var phases [4][]inc
			for p := range phases {
				phases[p] = make([]inc, 600)
				for i := range phases[p] {
					phases[p][i] = inc{uint64(rng.Intn(300)), uint64(1 + rng.Intn(1000))}
				}
			}
			var want [3][]byte
			for round, chunk := range []int{1, 7, 32, 1, 7, 32} {
				c, err := NewHACluster(3, 3, opts)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := c.Engine(EngineConfig{ChunkFrames: chunk})
				if err != nil {
					t.Fatal(err)
				}
				rep := eng.Reporter(1)
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				// phase submits one phase's increments, permuted after round
				// 0, and drains them to every live member.
				phase := func(p int) {
					t.Helper()
					order := rng.Perm(len(phases[p]))
					if round == 0 {
						for i := range order {
							order[i] = i
						}
					}
					for _, j := range order {
						in := phases[p][j]
						// One redundancy per key, as in TestOrderIndependence.
						must(rep.Increment(KeyFromUint64(in.key), in.delta, int(1+in.key%3)))
					}
					must(rep.Flush())
					must(eng.Drain())
				}
				phase(0)
				must(c.SetDown(1))
				phase(1)
				must(c.SetUp(1))
				phase(2)
				must(c.Rebalance())
				phase(3)
				must(eng.Close())
				must(c.Flush())
				for m := range want {
					got := c.System(m).Host().KeyIncrementStore().Buffer()
					if round == 0 {
						want[m] = bytes.Clone(got)
					} else if !bytes.Equal(got, want[m]) {
						t.Errorf("round %d (chunk %d): member %d's counters depend on arrival order or chunking", round, chunk, m)
					}
				}
				for _, m := range []int{0, 2} {
					if got := c.System(1).Host().KeyIncrementStore().Buffer(); !bytes.Equal(got, c.System(m).Host().KeyIncrementStore().Buffer()) {
						t.Errorf("round %d (chunk %d): rejoined member 1 differs from member %d after Rebalance", round, chunk, m)
					}
				}
			}
		})
	}
}
