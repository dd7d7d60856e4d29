package wire

import "math"

// StagedPlan is address generation's result for one staged record: the
// part of its translation that depends on the record and the
// deployment's immutable geometry alone, so it can be computed where the
// record is staged and ride with it to the translator. With the
// record's flags and its operand it is all the translator reads of a
// planned record. The zero entry is "not planned".
//
// It is one word, built in a register and stored whole. Low bits first:
// Start (16), Op (16), N (8), Prim (8), Flags (8), OpLen (8).
type StagedPlan uint64

// Start is the index in ChunkPlan.Slots of the record's first slot.
func (h StagedPlan) Start() int { return int(uint16(h)) }

// Op is the index in ChunkPlan.Operands of the record's operand.
func (h StagedPlan) Op() int { return int(uint16(h >> 16)) }

// N is the number of replicas planned; 0 = not planned.
func (h StagedPlan) N() int { return int(uint8(h >> 32)) }

// Prim is the record's primitive, whose store the slots index.
func (h StagedPlan) Prim() Primitive { return Primitive(h >> 40) }

// Flags are the record's header flags.
func (h StagedPlan) Flags() uint8 { return uint8(h >> 48) }

// OpLen is the operand's length in bytes.
func (h StagedPlan) OpLen() int { return int(h >> 56) }

// ChunkPlan is the plan of a chunk of staged records: Recs runs parallel
// to the records, Slots holds the planned records' store slot indexes
// back to back (an index, not an address: every slot hash is 32 bits
// wide) and Operands their operands — the bytes a record's verbs carry:
// a Key-Write's slot image (the big-endian key checksum, then the value
// zero-padded to the store's DataSize), a Key-Increment's delta
// (little-endian). 8 bytes a record plus 4 a replica plus the operand —
// 24 for a Key-Write at redundancy 2 and DataSize 4 — and complete in
// itself: the translator crafts a planned record's verbs without looking
// at the record. The zero value is "not planned".
type ChunkPlan struct {
	Recs     []StagedPlan
	Slots    []uint32
	Operands []byte
}

// MaxOperand is the longest operand: the slot image of a Key-Write
// (a 4-byte checksum) of the largest value.
const MaxOperand = 4 + MaxData

// Reset empties p, keeping its storage for the next chunk.
func (p *ChunkPlan) Reset() {
	p.Recs = p.Recs[:0]
	p.Slots = p.Slots[:0]
	p.Operands = p.Operands[:0]
}

// Reserve gives p, empty, room for a chunk of recs records with no
// further allocation at up to two replicas and 8 operand bytes each (a
// Key-Write at DataSize 4, a Key-Increment); more grow Slots or Operands
// once, and the chunk keeps the larger array when it is recycled.
func (p *ChunkPlan) Reserve(recs int) {
	p.Recs, p.Slots, p.Operands = make([]StagedPlan, 0, recs), make([]uint32, 0, 2*recs), make([]byte, 0, 8*recs)
}

// Planned records the next record's plan: the slot indexes the caller
// has appended to Slots since it stood at length start index prim's
// store, and the bytes appended to Operands since length op are the
// operand of a record with the given flags. A whole entry is written
// either way, so nothing a recycled array held survives. With prim 0 or
// no slots — or more slots or operand bytes than Start and Op can
// address, in a chunk of thousands of records — the slots and the
// operand are taken back and the record is left not planned.
func (p *ChunkPlan) Planned(prim Primitive, flags uint8, start, op int) {
	var h StagedPlan
	n, m := len(p.Slots)-start, len(p.Operands)-op
	if prim != 0 && n > 0 && n <= math.MaxUint8 && len(p.Slots) <= math.MaxUint16 &&
		m <= math.MaxUint8 && len(p.Operands) <= math.MaxUint16 {
		h = StagedPlan(start) | StagedPlan(op)<<16 | StagedPlan(n)<<32 |
			StagedPlan(prim)<<40 | StagedPlan(flags)<<48 | StagedPlan(m)<<56
	} else {
		p.Slots, p.Operands = p.Slots[:start], p.Operands[:op]
	}
	p.Recs = append(p.Recs, h)
}

// ViewLen and ViewAt read a view of a chunk — one collector's share of
// records staged once for several: their indexes in order, or nil for
// all of them. ViewLen is their number, ViewAt the j-th's index.
func ViewLen(recs []StagedReport, idx []uint32) int {
	if idx == nil {
		return len(recs)
	}
	return len(idx)
}

func ViewAt(idx []uint32, j int) int {
	if idx == nil {
		return j
	}
	return int(idx[j])
}

// SlotsOf returns the slot indexes of record i (empty when not planned).
func (p *ChunkPlan) SlotsOf(i int) []uint32 {
	h := p.Recs[i]
	return p.Slots[h.Start() : h.Start()+h.N()]
}

// OperandOf returns the operand of record i (empty when not planned).
func (p *ChunkPlan) OperandOf(i int) []byte {
	h := p.Recs[i]
	return p.Operands[h.Op() : h.Op()+h.OpLen()]
}
