package ha

import (
	"encoding/binary"
	"slices"
	"testing"
)

func ringKey(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i*0x9e3779b97f4a7c15)
	return b[:]
}

func TestRingOwnersBasics(t *testing.T) {
	r := NewRing(5)
	for i := uint64(0); i < 1000; i++ {
		owners := r.Owners(ringKey(i), 3, nil)
		if len(owners) != 3 {
			t.Fatalf("key %d: %d owners, want 3", i, len(owners))
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if o < 0 || o >= 5 {
				t.Fatalf("key %d: owner %d out of range", i, o)
			}
			if seen[o] {
				t.Fatalf("key %d: duplicate owner %d in %v", i, o, owners)
			}
			seen[o] = true
		}
		again := r.Owners(ringKey(i), 3, nil)
		for j := range owners {
			if owners[j] != again[j] {
				t.Fatalf("key %d: owners not deterministic: %v vs %v", i, owners, again)
			}
		}
	}
}

func TestRingOwnersClamped(t *testing.T) {
	r := NewRing(2)
	if got := r.Owners(ringKey(1), 5, nil); len(got) != 2 {
		t.Fatalf("owners clamped to %d, want 2", len(got))
	}
	if got := NewRing(0).Owners(ringKey(1), 2, nil); len(got) != 0 {
		t.Fatalf("empty ring returned owners %v", got)
	}
}

// TestRingDescendingScores checks out[0] really is the highest-scoring
// member (the primary), since queries treat it preferentially.
func TestRingDescendingScores(t *testing.T) {
	r := NewRing(8)
	for i := uint64(0); i < 200; i++ {
		key := ringKey(i)
		owners := r.Owners(key, 4, nil)
		digest := r.keyEng.Sum(key)
		prev := r.score(digest, owners[0])
		for _, o := range owners[1:] {
			s := r.score(digest, o)
			if s > prev {
				t.Fatalf("key %d: owners %v not in descending score order", i, owners)
			}
			prev = s
		}
	}
}

// TestRingDistribution checks rendezvous ownership spreads near
// uniformly at R = 2, like the root package's R = 1 distribution test.
func TestRingDistribution(t *testing.T) {
	const members, keys, rf = 4, 40000, 2
	r := NewRing(members)
	counts := make([]int, members)
	var buf [MaxReplicas]int
	for i := uint64(0); i < keys; i++ {
		for _, o := range r.Owners(ringKey(i), rf, buf[:0]) {
			counts[o]++
		}
	}
	mean := keys * rf / members
	for i, n := range counts {
		if n < mean*8/10 || n > mean*12/10 {
			t.Errorf("member %d owns %d slots (mean %d): skewed beyond ±20%%", i, n, mean)
		}
	}
}

// TestRingMinimalMovementOnAdd checks the rendezvous property that
// makes live resharding cheap: adding a member only ever moves keys TO
// the new member — a surviving key's owner set is a subset of the old
// set plus the newcomer.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	const keys, rf = 5000, 2
	r := NewRing(4)
	before := make([][]int, keys)
	for i := range before {
		before[i] = r.Owners(ringKey(uint64(i)), rf, nil)
	}
	if err := r.Add(4); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range before {
		after := r.Owners(ringKey(uint64(i)), rf, nil)
		was := map[int]bool{}
		for _, o := range before[i] {
			was[o] = true
		}
		changed := false
		for _, o := range after {
			if o == 4 {
				changed = true
				continue
			}
			if !was[o] {
				t.Fatalf("key %d: owner %d appeared without the new member gaining it (%v -> %v)",
					i, o, before[i], after)
			}
		}
		if changed {
			moved++
		}
	}
	// Expected movement: each key independently ranks the newcomer into
	// its top-2 of 5 with probability 2/5.
	if lo, hi := keys*rf*6/(10*5), keys*rf*14/(10*5); moved < lo || moved > hi {
		t.Errorf("add moved %d/%d keys, expected near %d", moved, keys, keys*rf/5)
	}
}

// TestRingMinimalMovementOnRemove: removing a member only moves the
// keys it owned; every other key keeps its exact owner set.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	const keys, rf = 5000, 2
	r := NewRing(5)
	before := make([][]int, keys)
	for i := range before {
		before[i] = r.Owners(ringKey(uint64(i)), rf, nil)
	}
	if err := r.Remove(2); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		after := r.Owners(ringKey(uint64(i)), rf, nil)
		owned := false
		for _, o := range before[i] {
			if o == 2 {
				owned = true
			}
		}
		if !owned {
			for j := range after {
				if after[j] != before[i][j] {
					t.Fatalf("key %d not owned by removed member yet moved: %v -> %v", i, before[i], after)
				}
			}
		}
	}
}

func TestRingMembershipErrors(t *testing.T) {
	r := NewRing(3)
	if err := r.Add(1); err == nil {
		t.Error("double add accepted")
	}
	if err := r.Add(-1); err == nil {
		t.Error("negative member accepted")
	}
	if err := r.Remove(7); err == nil {
		t.Error("removing absent member accepted")
	}
	if err := r.Remove(1); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Members(), []int{0, 2}) {
		t.Errorf("membership after remove: members=%v", r.Members())
	}
	if err := r.Add(1); err != nil {
		t.Fatal(err)
	}
	if got := r.Members(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("members = %v, want [0 1 2]", got)
	}
}

func TestHealthCounters(t *testing.T) {
	h := NewHealthScoped(nil)
	if h.IsDown(3) {
		t.Error("fresh member down")
	}
	if err := h.SetDown(3); err != nil {
		t.Fatal(err)
	}
	if !h.IsDown(3) {
		t.Error("SetDown did not stick")
	}
	if err := h.SetUp(3); err != nil {
		t.Fatal(err)
	}
	if h.IsDown(3) {
		t.Error("SetUp did not stick")
	}
	if err := h.SetDown(MaxMembers); err == nil {
		t.Error("out-of-range member accepted")
	}

	h.RecordWrite(2, 2) // healthy: no counters
	h.RecordWrite(1, 3) // degraded, 2 skips
	h.RecordWrite(0, 2) // lost, 2 skips
	h.RecordQuery(0, true, true)
	h.RecordQuery(1, true, false) // degraded + failover
	h.RecordQuery(1, false, false)
	st := h.Snapshot()
	want := Stats{
		DegradedWrites: 1, LostWrites: 1, ReplicaSkips: 4,
		DegradedQueries: 2, FailoverQueries: 1, FailedQueries: 1,
	}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}
