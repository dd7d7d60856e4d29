// Package ha is the high-availability control plane for multi-collector
// DTA (§7, "Supporting Multiple Collectors", extended): replicated key
// ownership over a rendezvous-hash ring, a failure-injection health
// view with degradation accounting, and slot-merge resynchronisation
// for collectors that rejoin or are added live.
//
// DTA already buys resilience with redundancy *inside* one collector —
// N-slot writes and plurality-vote queries. This package applies the
// same idea one layer up: each key is owned by R collectors instead of
// one, writers fan out to every live owner, and queries fall back across
// surviving owners. Loss of a replica is a first-class, measured regime
// (degraded writes/queries are counted, not errored), in the spirit of
// self-stabilising best-effort communication.
package ha

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dta/internal/crc"
)

// MaxReplicas is the largest supported replication factor R. It matches
// the store-level redundancy bound (N ≤ 8): replicating a key to more
// collectors than its slots inside one collector buys nothing.
const MaxReplicas = 8

// Ring maps keys to R replica owners with rendezvous (highest-random-
// weight) hashing: every (key, member) pair gets a deterministic score
// and the R highest-scoring members own the key. Unlike CRC-mod-N,
// membership change moves only the keys whose top-R set the joining or
// leaving member enters or leaves — on average an R/(n+1) fraction — so
// the cluster can grow, shrink and reshard incrementally.
//
// Scores are CRC-based for the same reason the stores' slot hashes are:
// the ring models what a reporter's forwarding table computes in a
// switch pipeline, where CRC units are the available hash hardware.
type Ring struct {
	keyEng *crc.Engine // key bytes → 32-bit digest
	mixEng *crc.Engine // (digest, member) → score; distinct polynomial
	// walk is mixed for a 16-byte key in one table walk: both CRCs are
	// affine, so their composition is.
	walk *crc.Walk16

	// view is the membership Owners reads: an immutable snapshot swapped
	// in whole by every change, so the fan-out hot path takes no lock —
	// an RWMutex's reader count is itself a cache line every producer
	// would bounce.
	view atomic.Pointer[ringView]

	// mu serialises writers.
	mu sync.Mutex
}

// ringView is one immutable membership snapshot.
type ringView struct {
	members []int // sorted member IDs
	// mix[i] is members[i]'s share of the rendezvous score. The CRC mix
	// is affine over GF(2), so
	//
	//	Sum64Pair(d, id) = Sum64Pair(d, 0) ^ Sum64Pair(0, id) ^ Sum64Pair(0, 0)
	//
	// and a lookup mixes the digest once, then XORs one constant per
	// member instead of running the CRC per member.
	mix []uint32
}

// NewRing builds a ring over members 0..n-1.
func NewRing(n int) *Ring {
	r := &Ring{
		keyEng: crc.New(crc.K32K),
		mixEng: crc.New(crc.Castagnoli),
	}
	r.walk = crc.NewWalk16(func(key *[16]byte) uint32 { return r.mixed(key[:]) })
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	r.publish(members)
	return r
}

// publish swaps in a snapshot over members (sorted, owned by the
// snapshot from here on). Writers call it under mu; NewRing before the
// ring is shared.
func (r *Ring) publish(members []int) {
	v := &ringView{members: members, mix: make([]uint32, len(members))}
	zero := r.mixEng.Sum64Pair(0, 0)
	for i, id := range members {
		v.mix[i] = r.mixEng.Sum64Pair(0, uint64(id)) ^ zero
	}
	r.view.Store(v)
}

// Members returns a copy of the current member set, sorted.
func (r *Ring) Members() []int {
	return append([]int(nil), r.view.Load().members...)
}

// find returns id's position in the sorted member list.
func (v *ringView) find(id int) (int, bool) {
	i := sort.SearchInts(v.members, id)
	return i, i < len(v.members) && v.members[i] == id
}

// Add inserts a member. Adding an existing member is an error: callers
// track membership and a silent double-add would mask a bookkeeping bug.
func (r *Ring) Add(id int) error {
	if id < 0 {
		return fmt.Errorf("ha: negative member id %d", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view.Load()
	i, ok := v.find(id)
	if ok {
		return fmt.Errorf("ha: member %d already in ring", id)
	}
	old := v.members
	// Snapshots are immutable: the new member list is a fresh slice.
	members := make([]int, 0, len(old)+1)
	r.publish(append(append(append(members, old[:i]...), id), old[i:]...))
	return nil
}

// Remove deletes a member.
func (r *Ring) Remove(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view.Load()
	i, ok := v.find(id)
	if !ok {
		return fmt.Errorf("ha: member %d not in ring", id)
	}
	old := v.members
	members := make([]int, 0, len(old)-1)
	r.publish(append(append(members, old[:i]...), old[i+1:]...))
	return nil
}

// mixed is the key's share of every member's score: its digest mixed
// with member 0, by the two CRCs walk tabulates for 16-byte keys.
func (r *Ring) mixed(key []byte) uint32 {
	return r.mixEng.Sum64Pair(uint64(r.keyEng.Sum(key)), 0)
}

// Owners appends the IDs of the min(n, member count) members owning key
// to out (pass a reused slice to avoid allocation) in descending score
// order, so out[0] is the primary replica. Deterministic for a fixed
// member set; stable under membership change except for keys the change
// moves.
// Lock-free: a lookup racing a membership change sees the set before or
// after it, whole.
func (r *Ring) Owners(key []byte, n int, out []int) []int {
	var mixed uint32
	if len(key) == 16 {
		mixed = r.walk.Sum((*[16]byte)(key))
	} else {
		mixed = r.mixed(key)
	}
	v := r.view.Load()
	n = max(0, min(n, MaxReplicas, len(v.members)))
	// top holds the best n members so far, descending, as
	// score<<32 | ^index: one compare orders by score, then by the
	// smaller index (members is sorted, so the smaller ID). A zero entry
	// sorts below every real one. Each member is carried down the list
	// by compare-exchange, which compiles without branches on the score.
	var top [MaxReplicas]uint64
	for i := range v.members {
		e := uint64(mixed^v.mix[i])<<32 | uint64(^uint32(i))
		for j := 0; j < n; j++ {
			top[j], e = max(top[j], e), min(top[j], e)
		}
	}
	for _, e := range top[:n] {
		out = append(out, v.members[^uint32(e)])
	}
	return out
}

// OwnersOfList is Owners for an Append list ID: lists are replicated
// across collectors exactly like keys, hashing the 32-bit list ID.
func (r *Ring) OwnersOfList(list uint32, n int, out []int) []int {
	key := [4]byte{byte(list >> 24), byte(list >> 16), byte(list >> 8), byte(list)}
	return r.Owners(key[:], n, out)
}
