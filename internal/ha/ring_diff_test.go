package ha

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refOwners is ownership as the ring computed it before the affine
// split: one full CRC mix (score) per member per lookup, weights looked
// up per member, top-n by descending score with ties to the smaller ID.
func refOwners(r *Ring, key []byte, n int) []int {
	digest := r.keyEng.Sum(key)
	members := r.Members()
	weighted := false
	for _, id := range members {
		if r.Weight(id) != 1 {
			weighted = true
		}
	}
	score := make([]float64, len(members))
	for i, id := range members {
		if weighted {
			score[i] = r.weightedScore(digest, id, r.Weight(id))
		} else {
			score[i] = float64(r.score(digest, id)) // uint32: exact in a float64
		}
	}
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	n = min(n, MaxReplicas, len(members))
	out := make([]int, n)
	for i := range out {
		out[i] = members[order[i]]
	}
	return out
}

// TestRingScoreIsAffine pins the identity the lookup relies on, over
// random digests × member IDs: the split score is the old score, bit
// for bit.
func TestRingScoreIsAffine(t *testing.T) {
	r := NewRing(1)
	rng := rand.New(rand.NewSource(18))
	zero := r.mixEng.Sum64Pair(0, 0)
	for i := 0; i < 200000; i++ {
		digest, id := rng.Uint32(), rng.Intn(1<<20)
		split := r.mixEng.Sum64Pair(uint64(digest), 0) ^ r.mixEng.Sum64Pair(0, uint64(id)) ^ zero
		if want := r.score(digest, id); split != want {
			t.Fatalf("digest %#x member %d: split score %#x, old score %#x", digest, id, split, want)
		}
	}
}

// TestRingOwnersMatchOldScoring runs Owners against refOwners through a
// membership history — Add, Remove, SetWeight to skewed and back — with
// fresh random keys at every step.
func TestRingOwnersMatchOldScoring(t *testing.T) {
	r := NewRing(5)
	rng := rand.New(rand.NewSource(1818))
	check := func(stage string) {
		t.Helper()
		var key [16]byte
		var buf [MaxReplicas]int
		for i := 0; i < 20000; i++ {
			binary.LittleEndian.PutUint64(key[:], rng.Uint64())
			binary.LittleEndian.PutUint64(key[8:], rng.Uint64())
			n := 1 + rng.Intn(MaxReplicas+1)
			got, want := r.Owners(key[:], n, buf[:0]), refOwners(r, key[:], n)
			if len(got) != len(want) {
				t.Fatalf("%s: key %x n=%d: %v, old scoring %v", stage, key, n, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s: key %x n=%d: %v, old scoring %v", stage, key, n, got, want)
				}
			}
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check("fresh")
	must(r.Add(9))
	must(r.Add(7))
	check("after Add")
	must(r.Remove(2))
	check("after Remove")
	must(r.SetWeight(7, 2.5))
	must(r.SetWeight(0, 0.5))
	check("weighted")
	must(r.Add(2))
	check("weighted, after Add")
	must(r.Remove(0))
	must(r.SetWeight(7, 1))
	check("weights back at 1")
	for id := 10; id < 40; id++ {
		must(r.Add(id))
	}
	check("40 members")
}

// TestRingOwnersLockFreeUnderChange: lookups racing membership changes
// see a whole member set, before or after (run under -race).
func TestRingOwnersLockFreeUnderChange(t *testing.T) {
	r := NewRing(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf [MaxReplicas]int
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				owners := r.Owners(ringKey(i*4+uint64(g)), 3, buf[:0])
				if len(owners) != 3 {
					t.Errorf("owners %v: want 3 of a ring that never drops below 4", owners)
					return
				}
				for _, o := range owners {
					if o < 0 || o > 4 {
						t.Errorf("owner %d was never a member", o)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if err := r.Add(4); err != nil {
			t.Fatal(err)
		}
		if err := r.SetWeight(4, 2); err != nil {
			t.Fatal(err)
		}
		if err := r.Remove(4); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

var ownersSink int

// BenchmarkRingOwners is the HA fan-out's per-report lookup: 4 members,
// R = 3, the ha_r3 workload's shape.
func BenchmarkRingOwners(b *testing.B) {
	r := NewRing(4)
	var key [16]byte
	var buf [MaxReplicas]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i))
		ownersSink += len(r.Owners(key[:], 3, buf[:0]))
	}
}
