package ha

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// score is the rendezvous weight of member id for a key digest, mixed
// whole. Ties are broken by member ID, so scores need not be unique.
// Owners computes the same value from its affine parts.
func (r *Ring) score(digest uint32, id int) uint32 {
	return r.mixEng.Sum64Pair(uint64(digest), uint64(id))
}

// refOwners is ownership as the ring computed it before the affine
// split: one full CRC mix (score) per member per lookup, top-n by
// descending score with ties to the smaller ID.
func refOwners(r *Ring, key []byte, n int) []int {
	digest := r.keyEng.Sum(key)
	members := r.Members()
	score := make([]uint32, len(members))
	for i, id := range members {
		score[i] = r.score(digest, id)
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
// membership history — Add, Remove, re-Add, Remove-then-Add churn — with
// fresh random keys at every step: 16-byte keys (the table walk), 4-byte
// list IDs through OwnersOfList (the two CRCs), n from 0 to past
// MaxReplicas, and a one-member ring.
func TestRingOwnersMatchOldScoring(t *testing.T) {
	r := NewRing(5)
	rng := rand.New(rand.NewSource(1818))
	check := func(r *Ring, stage string) {
		t.Helper()
		var key [16]byte
		var buf [MaxReplicas]int
		same := func(what string, key []byte, n int, got, want []int) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %s %x n=%d: %v, old scoring %v", stage, what, key, n, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s: %s %x n=%d: %v, old scoring %v", stage, what, key, n, got, want)
				}
			}
		}
		for i := 0; i < 20000; i++ {
			binary.LittleEndian.PutUint64(key[:], rng.Uint64())
			binary.LittleEndian.PutUint64(key[8:], rng.Uint64())
			n := rng.Intn(MaxReplicas + 2)
			same("key", key[:], n, r.Owners(key[:], n, buf[:0]), refOwners(r, key[:], n))
			list := rng.Uint32()
			var lkey [4]byte
			binary.BigEndian.PutUint32(lkey[:], list)
			same("list", lkey[:], n, r.OwnersOfList(list, n, buf[:0]), refOwners(r, lkey[:], n))
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(r, "fresh")
	must(r.Add(9))
	must(r.Add(7))
	check(r, "after Add")
	must(r.Remove(2))
	check(r, "after Remove")
	must(r.Remove(7))
	must(r.Remove(0))
	check(r, "after second Remove")
	must(r.Add(2))
	check(r, "re-Add")
	must(r.Add(0))
	must(r.Remove(9))
	must(r.Add(7))
	check(r, "churn")
	for id := 10; id < 40; id++ {
		must(r.Add(id))
	}
	check(r, "40 members")
	one := NewRing(1)
	check(one, "one member")
	must(one.Remove(0))
	must(one.Add(6))
	check(one, "one member, re-numbered")
}

// TestRingWalkMatchesDigest pins the ring's table walk to the two CRCs
// it tabulates, on the zero key, every one-byte key and random keys.
func TestRingWalkMatchesDigest(t *testing.T) {
	r := NewRing(1)
	match := func(key *[16]byte) {
		t.Helper()
		if got, want := r.walk.Sum(key), r.mixed(key[:]); got != want {
			t.Fatalf("key %x: walk %#x, two CRCs %#x", key[:], got, want)
		}
	}
	var key [16]byte
	match(&key)
	for i := range key {
		for v := 0; v < 256; v++ {
			key[i] = byte(v)
			match(&key)
		}
		key[i] = 0
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 100000; i++ {
		rng.Read(key[:])
		match(&key)
	}
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
		if err := r.Remove(0); err != nil {
			t.Fatal(err)
		}
		if err := r.Add(0); err != nil {
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
// R = 3, the ha_r3 workload's shape. Keys come from a pre-generated
// table of random 16-byte keys, as the workload's tape does, so the
// top-R selection sees random scores rather than a sequential pattern.
func BenchmarkRingOwners(b *testing.B) {
	r := NewRing(4)
	keys := make([][16]byte, 4096)
	rng := rand.New(rand.NewSource(37))
	for i := range keys {
		rng.Read(keys[i][:])
	}
	var buf [MaxReplicas]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ownersSink += len(r.Owners(keys[i&(len(keys)-1)][:], 3, buf[:0]))
	}
}
