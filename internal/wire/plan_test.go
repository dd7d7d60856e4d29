package wire

import (
	"math"
	"slices"
	"testing"
)

// TestChunkPlanEntries: every record gets a whole entry, planned or not;
// a record whose slots Start could not address is left not planned and
// its slots are taken back; sub-plans share Slots.
func TestChunkPlanEntries(t *testing.T) {
	var p ChunkPlan
	p.Reserve(4)
	p.Append(PrimKeyWrite, 7, []uint32{10, 11})
	p.Append(0, 9, []uint32{1}) // no store named: not planned
	p.Append(PrimKeyIncrement, 0, nil)
	p.Append(PrimKeyIncrement, 0, []uint32{20, 21, 22})
	want := []StagedPlan{{Csum: 7, Start: 0, N: 2, Prim: PrimKeyWrite}, {}, {}, {Start: 2, N: 3, Prim: PrimKeyIncrement}}
	if !slices.Equal(p.Recs, want) || !slices.Equal(p.Slots, []uint32{10, 11, 20, 21, 22}) {
		t.Fatalf("plan %+v slots %v", p.Recs, p.Slots)
	}
	if got := p.SlotsOf(3); !slices.Equal(got, []uint32{20, 21, 22}) || len(p.SlotsOf(1)) != 0 {
		t.Fatalf("SlotsOf(3) = %v, SlotsOf(1) = %v", got, p.SlotsOf(1))
	}
	sub := p.Slice(2, 4)
	if len(sub.Recs) != 2 || !slices.Equal(sub.SlotsOf(1), []uint32{20, 21, 22}) {
		t.Fatalf("Slice(2,4) = %+v", sub)
	}
	if got := (ChunkPlan{}).Slice(0, 0); got.Recs != nil || got.Slots != nil {
		t.Fatalf("an unplanned chunk sliced to %+v", got)
	}

	// Fill Slots to the last index Start can name, then one more record.
	p.Reset()
	eight := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	for len(p.Slots)+len(eight) <= math.MaxUint16 {
		p.Append(PrimKeyWrite, 1, eight)
	}
	recs, slots := len(p.Recs), len(p.Slots)
	p.Append(PrimKeyWrite, 1, eight)
	if len(p.Recs) != recs+1 || p.Recs[recs] != (StagedPlan{}) || len(p.Slots) != slots {
		t.Fatalf("overflowing record: entry %+v, %d slots (had %d)", p.Recs[recs], len(p.Slots), slots)
	}
	last := p.Recs[recs-1]
	if int(last.Start)+int(last.N) != slots {
		t.Fatalf("last planned entry %+v does not end at %d", last, slots)
	}
}
