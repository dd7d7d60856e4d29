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
					if failed, err := sink.ProcessStagedBatch(chunk, plan, nil, 0); failed != 0 {
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
