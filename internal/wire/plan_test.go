package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// entry packs an expected plan entry.
func entry(start, op, n int, prim Primitive, flags uint8, opLen int) StagedPlan {
	return StagedPlan(start) | StagedPlan(op)<<16 | StagedPlan(n)<<32 |
		StagedPlan(prim)<<40 | StagedPlan(flags)<<48 | StagedPlan(opLen)<<56
}

// plan appends a record's slot indexes and operand to p and plans it.
func plan(p *ChunkPlan, prim Primitive, flags uint8, slots []uint32, op []byte) {
	start, m := len(p.Slots), len(p.Operands)
	p.Slots, p.Operands = append(p.Slots, slots...), append(p.Operands, op...)
	p.Planned(prim, flags, start, m)
}

// TestChunkPlanEntries: every record gets a whole entry, planned or not;
// a record whose slots Start could not address, or whose operand Op
// could not, is left not planned and its slots and operand are taken
// back.
func TestChunkPlanEntries(t *testing.T) {
	var p ChunkPlan
	p.Reserve(4)
	plan(&p, PrimKeyWrite, FlagImmediate, []uint32{10, 11}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	plan(&p, 0, 0, []uint32{1}, []byte{9}) // no store named: not planned
	plan(&p, PrimKeyIncrement, 0, nil, []byte{9})
	plan(&p, PrimKeyIncrement, 0, []uint32{20, 21, 22}, []byte{7, 0, 0, 0, 0, 0, 0, 0})
	want := []StagedPlan{
		entry(0, 0, 2, PrimKeyWrite, FlagImmediate, 8),
		0, 0,
		entry(2, 8, 3, PrimKeyIncrement, 0, 8),
	}
	if !slices.Equal(p.Recs, want) || !slices.Equal(p.Slots, []uint32{10, 11, 20, 21, 22}) || len(p.Operands) != 16 {
		t.Fatalf("plan %+v slots %v operands %v", p.Recs, p.Slots, p.Operands)
	}
	if got := p.SlotsOf(3); !slices.Equal(got, []uint32{20, 21, 22}) || len(p.SlotsOf(1)) != 0 {
		t.Fatalf("SlotsOf(3) = %v, SlotsOf(1) = %v", got, p.SlotsOf(1))
	}
	if got := p.OperandOf(3); !bytes.Equal(got, []byte{7, 0, 0, 0, 0, 0, 0, 0}) || len(p.OperandOf(2)) != 0 {
		t.Fatalf("OperandOf(3) = %v, OperandOf(2) = %v", got, p.OperandOf(2))
	}

	// Fill Slots to the last index Start can name, then one more record.
	p.Reset()
	eight := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	for len(p.Slots)+len(eight) <= math.MaxUint16 {
		plan(&p, PrimKeyWrite, 0, eight, nil)
	}
	recs, slots := len(p.Recs), len(p.Slots)
	plan(&p, PrimKeyWrite, 0, eight, nil)
	if len(p.Recs) != recs+1 || p.Recs[recs] != StagedPlan(0) || len(p.Slots) != slots {
		t.Fatalf("overflowing record: entry %+v, %d slots (had %d)", p.Recs[recs], len(p.Slots), slots)
	}
	last := p.Recs[recs-1]
	if last.Start()+last.N() != slots {
		t.Fatalf("last planned entry %+v does not end at %d", last, slots)
	}

	// The same for Operands, with slots to spare: a 68-byte image.
	p.Reset()
	img := make([]byte, 68)
	for len(p.Operands)+len(img) <= math.MaxUint16 {
		plan(&p, PrimKeyWrite, 0, eight[:1], img)
	}
	recs, ops := len(p.Recs), len(p.Operands)
	plan(&p, PrimKeyWrite, 0, eight[:1], img)
	if len(p.Recs) != recs+1 || p.Recs[recs] != StagedPlan(0) || len(p.Operands) != ops || len(p.Slots) != recs {
		t.Fatalf("overflowing operand: entry %+v, %d operand bytes (had %d), %d slots", p.Recs[recs], len(p.Operands), ops, len(p.Slots))
	}
	if last := p.Recs[recs-1]; last.Op()+last.OpLen() != ops {
		t.Fatalf("last planned entry %+v does not end at %d", last, ops)
	}
	// An operand longer than OpLen can say is not planned either.
	p.Reset()
	plan(&p, PrimKeyWrite, 0, eight[:1], make([]byte, math.MaxUint8+1))
	if p.Recs[0] != StagedPlan(0) || len(p.Slots)+len(p.Operands) != 0 {
		t.Fatalf("over-long operand: entry %+v", p.Recs[0])
	}
}

// TestStagedPlanFields: every field reads back what was packed, at its
// widest value beside zeros and beside its neighbours' widest.
func TestStagedPlanFields(t *testing.T) {
	for _, h := range []StagedPlan{entry(0xffff, 0, 0, 0, 0, 0), entry(0, 0xffff, 0, 0, 0, 0),
		entry(0, 0, 0xff, 0, 0, 0), entry(0, 0, 0, 0xff, 0, 0), entry(0, 0, 0, 0, 0xff, 0),
		entry(0, 0, 0, 0, 0, 0xff), entry(0xffff, 0xffff, 0xff, 0xff, 0xff, 0xff), entry(1, 2, 3, 4, 5, 6)} {
		if back := entry(h.Start(), h.Op(), h.N(), h.Prim(), h.Flags(), h.OpLen()); back != h {
			t.Errorf("entry %#x reads back as %#x", uint64(h), uint64(back))
		}
	}
	if h := entry(1, 2, 3, PrimKeyWrite, FlagImmediate, 6); h.Start() != 1 || h.Op() != 2 || h.N() != 3 ||
		h.Prim() != PrimKeyWrite || h.Flags() != FlagImmediate || h.OpLen() != 6 {
		t.Errorf("entry %#x fields %d %d %d %v %d %d", uint64(h), h.Start(), h.Op(), h.N(), h.Prim(), h.Flags(), h.OpLen())
	}
}
