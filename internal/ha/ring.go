// Package ha is the high-availability control plane for multi-collector
// DTA (§7, "Supporting Multiple Collectors", extended): replicated key
// ownership over a rendezvous-hash ring, a failure-injection health
// view with degradation accounting, and snapshot-replay resynchronisation
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
	"math"
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
// Capacity weights (SetWeight) extend the scheme to heterogeneous
// collectors with weighted rendezvous hashing: member i's score becomes
// -wᵢ/ln(uᵢ) for uᵢ uniform in (0,1) derived from the CRC mix, so the
// probability of owning a key is proportional to wᵢ — a bigger
// collector owns a proportionally bigger key slice. The ring pays the
// float math (and a different ownership assignment: switching scoring
// functions reshards) only once some weight differs from 1; with all
// weights back at 1 the integer fast path resumes.
type Ring struct {
	keyEng *crc.Engine // key bytes → 32-bit digest
	mixEng *crc.Engine // (digest, member) → score; distinct polynomial

	// view is the membership Owners reads: an immutable snapshot swapped
	// in whole by every change, so the fan-out hot path takes no lock —
	// an RWMutex's reader count is itself a cache line every producer
	// would bounce.
	view atomic.Pointer[ringView]

	// mu serialises writers; the fields below are theirs.
	mu sync.Mutex
	// weights holds per-member capacity weights; absent = 1. skewed
	// counts members whose weight differs from 1, gating the weighted
	// scoring path.
	weights map[int]float64
	skewed  int
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
	// weights runs parallel to members; nil while every weight is 1 (the
	// integer fast path).
	weights []float64
}

// NewRing builds a ring over members 0..n-1.
func NewRing(n int) *Ring {
	r := &Ring{
		keyEng:  crc.New(crc.K32K),
		mixEng:  crc.New(crc.Castagnoli),
		weights: make(map[int]float64),
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	r.publish(members)
	return r
}

// publish swaps in a snapshot over members (sorted, owned by the
// snapshot from here on) and the current weights. Writers call it under
// mu; NewRing before the ring is shared.
func (r *Ring) publish(members []int) {
	v := &ringView{members: members, mix: make([]uint32, len(members))}
	zero := r.mixEng.Sum64Pair(0, 0)
	for i, id := range members {
		v.mix[i] = r.mixEng.Sum64Pair(0, uint64(id)) ^ zero
	}
	if r.skewed > 0 {
		v.weights = make([]float64, len(members))
		for i, id := range members {
			w, ok := r.weights[id]
			if !ok {
				w = 1
			}
			v.weights[i] = w
		}
	}
	r.view.Store(v)
}

// Size returns the current member count.
func (r *Ring) Size() int { return len(r.view.Load().members) }

// Members returns a copy of the current member set, sorted.
func (r *Ring) Members() []int {
	return append([]int(nil), r.view.Load().members...)
}

// find returns id's position in the sorted member list.
func (v *ringView) find(id int) (int, bool) {
	i := sort.SearchInts(v.members, id)
	return i, i < len(v.members) && v.members[i] == id
}

// Contains reports whether id is in the ring.
func (r *Ring) Contains(id int) bool {
	_, ok := r.view.Load().find(id)
	return ok
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

// Remove deletes a member (its weight is forgotten with it).
func (r *Ring) Remove(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view.Load()
	i, ok := v.find(id)
	if !ok {
		return fmt.Errorf("ha: member %d not in ring", id)
	}
	old := v.members
	if w, ok := r.weights[id]; ok {
		delete(r.weights, id)
		if w != 1 {
			r.skewed--
		}
	}
	members := make([]int, 0, len(old)-1)
	r.publish(append(append(members, old[:i]...), old[i+1:]...))
	return nil
}

// SetWeight assigns member id a capacity weight (> 0): its expected
// share of owned keys becomes weight/Σweights. Callers moving weights
// on a live cluster own the resharding consequences (keys change
// owners), exactly as with Add/Remove.
func (r *Ring) SetWeight(id int, weight float64) error {
	if !(weight > 0) || math.IsInf(weight, 1) {
		return fmt.Errorf("ha: weight %v out of range (0, +Inf)", weight)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view.Load()
	if _, ok := v.find(id); !ok {
		return fmt.Errorf("ha: member %d not in ring", id)
	}
	old, had := r.weights[id]
	if !had {
		old = 1
	}
	if old != 1 && weight == 1 {
		r.skewed--
	} else if old == 1 && weight != 1 {
		r.skewed++
	}
	r.weights[id] = weight
	r.publish(v.members) // snapshots never mutate members: safe to share
	return nil
}

// Weight returns member id's capacity weight (1 when unset).
func (r *Ring) Weight(id int) float64 {
	v := r.view.Load()
	if i, ok := v.find(id); ok && v.weights != nil {
		return v.weights[i]
	}
	return 1
}

// score is the rendezvous weight of member id for a key digest. Ties are
// broken by member ID below, so scores need not be unique. Owners'
// unweighted loop computes the same value from its affine parts.
func (r *Ring) score(digest uint32, id int) uint32 {
	return r.mixEng.Sum64Pair(uint64(digest), uint64(id))
}

// weightedScore is the weighted rendezvous score -w/ln(u), which makes
// P(member wins) ∝ its weight. The CRC mix is GF(2)-linear, so raw
// scores of different members for the same key are XOR-correlated —
// harmless for the symmetric unweighted argmax, but weight-proportional
// ownership needs (approximately) independent uniforms, so the mix is
// passed through a 64-bit avalanche finalizer (splitmix64's) first.
func (r *Ring) weightedScore(digest uint32, id int, w float64) float64 {
	h := uint64(r.score(digest, id)) | uint64(id+1)<<32
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	// Map the top 53 bits into (0,1), offset by ½ so u is never 0 or 1.
	u := (float64(h>>11) + 0.5) / (1 << 53)
	return -w / math.Log(u)
}

// Owners appends the IDs of the min(n, Size) members owning key to out
// (pass a reused slice to avoid allocation) in descending score order,
// so out[0] is the primary replica. Deterministic for a fixed member
// set; stable under membership change except for keys the change moves.
// Lock-free: a lookup racing a membership change sees the set before or
// after it, whole.
func (r *Ring) Owners(key []byte, n int, out []int) []int {
	digest := r.keyEng.Sum(key)
	if n > MaxReplicas {
		n = MaxReplicas
	}
	v := r.view.Load()
	if n > len(v.members) {
		n = len(v.members)
	}
	if v.weights != nil {
		return r.weightedOwners(v, digest, n, out)
	}
	var scores [MaxReplicas]uint32
	base := len(out)
	mixed := r.mixEng.Sum64Pair(uint64(digest), 0)
	for i, id := range v.members {
		s := mixed ^ v.mix[i]
		have := len(out) - base
		// Insertion position among the current top-`have`: descending by
		// score, ascending by ID on ties (members is sorted, so an equal
		// score never displaces an earlier, smaller ID).
		pos := have
		for pos > 0 && s > scores[pos-1] {
			pos--
		}
		if pos >= n {
			continue
		}
		if have < n {
			out = append(out, 0)
			have++
		}
		copy(scores[pos+1:have], scores[pos:have-1])
		copy(out[base+pos+1:base+have], out[base+pos:base+have-1])
		scores[pos] = s
		out[base+pos] = id
	}
	return out
}

// weightedOwners is Owners' scoring loop over weighted rendezvous
// scores, taken only when some weight differs from 1 (the float math
// costs a log per member per lookup).
func (r *Ring) weightedOwners(v *ringView, digest uint32, n int, out []int) []int {
	var scores [MaxReplicas]float64
	base := len(out)
	for i, id := range v.members {
		s := r.weightedScore(digest, id, v.weights[i])
		have := len(out) - base
		pos := have
		for pos > 0 && s > scores[pos-1] {
			pos--
		}
		if pos >= n {
			continue
		}
		if have < n {
			out = append(out, 0)
			have++
		}
		copy(scores[pos+1:have], scores[pos:have-1])
		copy(out[base+pos+1:base+have], out[base+pos:base+have-1])
		scores[pos] = s
		out[base+pos] = id
	}
	return out
}

// OwnersOfList is Owners for an Append list ID: lists are replicated
// across collectors exactly like keys, hashing the 32-bit list ID.
func (r *Ring) OwnersOfList(list uint32, n int, out []int) []int {
	key := [4]byte{byte(list >> 24), byte(list >> 16), byte(list >> 8), byte(list)}
	return r.Owners(key[:], n, out)
}
