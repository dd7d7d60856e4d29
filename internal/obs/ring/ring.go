// Package ring is the substrate the self-telemetry record streams share:
// a bounded, lock-free, allocation-free, overwriting ring of fixed-size
// records that readers drain by cursor, and the one HTTP handler that
// serves such a ring under the ?since= cursor protocol. The flight
// recorder (internal/obs/journal) and the trace pipeline
// (internal/obs/trace) are record schemas over it: each packs its own
// words and decodes them back; the ring owns the slots, the seqlock and
// the cursor arithmetic.
//
// Each slot holds a record's words as atomics under one seqlock mark:
// seq<<1 once record seq is complete, odd while a writer is storing it.
// A publisher claims the next sequence number, stores its words and
// commits; it never waits on a reader. A reader concurrent with a
// wrapping writer sees the mark change and counts the slot missed
// rather than returning a torn record.
package ring

import "sync/atomic"

// Ring is a bounded MPMC ring of records of type R, each stored as a
// fixed number of uint64 words. All methods are safe for concurrent
// use; the read-side methods are nil-safe.
type Ring[R any] struct {
	seq    atomic.Uint64 // last sequence number claimed
	mask   uint64
	words  int // payload words per record
	stride int // cells per slot: mark + words, padded to 64-byte lines (no false sharing)
	cells  []atomic.Uint64
	decode func(seq uint64, w []uint64) R
}

// New builds a ring of size records (rounded up to a power of two) of
// words uint64 each; decode turns a record's words back into an R.
func New[R any](size, words int, decode func(seq uint64, w []uint64) R) *Ring[R] {
	n := 1
	for n < size {
		n <<= 1
	}
	stride := (words + 1 + 7) &^ 7
	return &Ring[R]{mask: uint64(n - 1), words: words, stride: stride,
		cells: make([]atomic.Uint64, n*stride), decode: decode}
}

// Claim reserves the next sequence number and marks its slot in
// progress. The caller stores the record into w (one cell per word)
// and then calls Commit(seq).
func (r *Ring[R]) Claim() (seq uint64, w []atomic.Uint64) {
	seq = r.seq.Add(1)
	i := int(seq&r.mask) * r.stride
	r.cells[i].Store(seq<<1 | 1)
	return seq, r.cells[i+1 : i+1+r.words]
}

// Commit publishes the record claimed as seq.
func (r *Ring[R]) Commit(seq uint64) {
	r.cells[int(seq&r.mask)*r.stride].Store(seq << 1)
}

// read copies record seq's words into w, seqlock-validated: false when
// the slot was overwritten by a later lap or is mid-publish.
func (r *Ring[R]) read(seq uint64, w []uint64) bool {
	i := int(seq&r.mask) * r.stride
	if r.cells[i].Load() != seq<<1 {
		return false
	}
	for k := range w {
		w[k] = r.cells[i+1+k].Load()
	}
	return r.cells[i].Load() == seq<<1
}

// Last returns the newest sequence number claimed (0 = empty).
func (r *Ring[R]) Last() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Cap returns the ring capacity in records.
func (r *Ring[R]) Cap() int {
	if r == nil {
		return 0
	}
	return int(r.mask + 1)
}

// Dropped counts records overwritten by ring wrap: publishes minus
// capacity, never negative.
func (r *Ring[R]) Dropped() uint64 {
	if last, size := r.Last(), uint64(r.Cap()); last > size {
		return last - size
	}
	return 0
}

// Since appends to buf, oldest first, every record still retained after
// cursor (a sequence number; 0 = from the beginning), so a read returns
// at most Cap records. last is the newest sequence number, the cursor to
// pass next time; missed counts the records after cursor this read
// cannot return because the ring overwrote them, or a writer still held
// them, first.
func (r *Ring[R]) Since(cursor uint64, buf []R) (recs []R, last, missed uint64) {
	if r == nil {
		return buf, 0, 0
	}
	last = r.seq.Load()
	lo := cursor + 1
	if size := r.mask + 1; last > size && last-size+1 > lo {
		missed = last - size + 1 - lo
		lo = last - size + 1
	}
	recs = buf
	w := make([]uint64, r.words)
	for seq := lo; seq <= last; seq++ {
		if r.read(seq, w) {
			recs = append(recs, r.decode(seq, w))
		} else {
			missed++
		}
	}
	return recs, last, missed
}
