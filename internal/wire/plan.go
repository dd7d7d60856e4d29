package wire

import "math"

// StagedPlan is address generation's result for one staged record: the
// part of its translation that depends on the record and the
// deployment's immutable geometry alone, so it can be computed where the
// record is staged and ride with it to the translator.
type StagedPlan struct {
	Csum  uint32    // Key-Write key checksum
	Start uint16    // first of the record's slot indexes in ChunkPlan.Slots
	N     uint8     // replicas planned; 0 = not planned, the translator decides alone
	Prim  Primitive // whose store the slots index (the record's primitive); 0 when not planned
}

// ChunkPlan is the plan of a chunk of staged records: Recs runs parallel
// to the records, Slots holds the planned records' store slot indexes
// back to back (an index, not an address: every slot hash is 32 bits
// wide). 8 bytes a record plus 4 a replica — 16 for a Key-Write at
// redundancy 2 — and complete in itself: the translator turns it into
// addresses without looking at a record. The zero value is "not
// planned".
type ChunkPlan struct {
	Recs  []StagedPlan
	Slots []uint32
}

// Reset empties p, keeping its storage for the next chunk.
func (p *ChunkPlan) Reset() {
	p.Recs = p.Recs[:0]
	p.Slots = p.Slots[:0]
}

// Reserve makes room for a chunk of recs records with no further
// allocation at up to two replicas each (more grow Slots once; the chunk
// keeps the larger array when it is recycled).
func (p *ChunkPlan) Reserve(recs int) {
	if cap(p.Recs) < recs {
		p.Recs = append(make([]StagedPlan, 0, recs), p.Recs...)
	}
	if cap(p.Slots) < 2*recs {
		p.Slots = append(make([]uint32, 0, 2*recs), p.Slots...)
	}
}

// Planned records the next record's plan: the slot indexes the caller
// has appended to Slots since it stood at length start index prim's
// store, under checksum csum. A whole entry is written either way, so
// nothing a recycled array held survives. With prim 0 or no slots — or
// more than Start can address, in a chunk of thousands of records — the
// slots are taken back and the record is left not planned.
func (p *ChunkPlan) Planned(prim Primitive, csum uint32, start int) {
	var h StagedPlan
	if n := len(p.Slots) - start; prim != 0 && n > 0 && n <= math.MaxUint8 && len(p.Slots) <= math.MaxUint16 {
		h = StagedPlan{Csum: csum, Start: uint16(start), N: uint8(n), Prim: prim}
	} else {
		p.Slots = p.Slots[:start]
	}
	p.Recs = append(p.Recs, h)
}

// Append is Planned for slot indexes held elsewhere (another chunk's
// plan): it copies them in.
func (p *ChunkPlan) Append(prim Primitive, csum uint32, slots []uint32) {
	start := len(p.Slots)
	p.Slots = append(p.Slots, slots...)
	p.Planned(prim, csum, start)
}

// SlotsOf returns the slot indexes of record i (empty when not planned).
func (p *ChunkPlan) SlotsOf(i int) []uint32 {
	h := p.Recs[i]
	return p.Slots[h.Start : h.Start+uint16(h.N)]
}

// Slice returns the plan of records [from, to): entries keep indexing the
// shared Slots, so a sub-chunk's plan costs nothing to cut. A chunk that
// was not planned slices to one that was not.
func (p ChunkPlan) Slice(from, to int) ChunkPlan {
	if len(p.Recs) == 0 {
		return ChunkPlan{}
	}
	return ChunkPlan{Recs: p.Recs[from:to], Slots: p.Slots}
}
