package translator

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dta/internal/wire"
)

// fullScanKIDrain is kiAggCache.drain as it was before the occupancy
// bitmap: a walk over every row. TestKIAggDrainMatchesFullScan holds
// drain to it.
func fullScanKIDrain(c *kiAggCache) []wire.KeyIncrement {
	out := c.out[:0]
	for i := range c.rows {
		r := &c.rows[i]
		if !r.occupied {
			continue
		}
		out = append(out, wire.KeyIncrement{Redundancy: r.red, Key: r.key, Delta: r.delta})
		*r = kiAggRow{}
	}
	c.out = out
	return out
}

// kiOccupancy counts occupied rows by scan and by bitmap.
func kiOccupancy(c *kiAggCache) (scan, bitmap int) {
	for i := range c.rows {
		if c.rows[i].occupied {
			scan++
		}
	}
	for _, w := range c.live {
		bitmap += bits.OnesCount64(w)
	}
	return scan, bitmap
}

// TestKIAggDrainMatchesFullScan drives twin aggregation caches through
// the same random increments — few rows and a small key pool, so
// evictions are frequent — and drains one through its bitmap, the other
// by a full scan, at random points. Evictions, drained aggregates
// (content and order), rows and occupancy must agree throughout.
func TestKIAggDrainMatchesFullScan(t *testing.T) {
	for _, rows := range []int{1, 4, 64, 256} {
		rnd := rand.New(rand.NewSource(int64(rows)))
		bitmap, scan := newKIAggCache(rows), newKIAggCache(rows)
		keys := 3 * rows
		drains, evictions := 0, 0
		for step := 0; step < 20000; step++ {
			ki := wire.KeyIncrement{
				Redundancy: uint8(1 + rnd.Intn(4)),
				Key:        key(uint64(rnd.Intn(keys))),
				Delta:      uint64(rnd.Intn(100)),
			}
			k1, d1, r1, f1 := bitmap.add(&ki)
			k2, d2, r2, f2 := scan.add(&ki)
			if k1 != k2 || d1 != d2 || r1 != r2 || f1 != f2 {
				t.Fatalf("rows=%d step %d: add evicted (%v %d %d %v), reference (%v %d %d %v)", rows, step, k1, d1, r1, f1, k2, d2, r2, f2)
			}
			if f1 {
				evictions++
			}
			if rnd.Intn(40) == 0 {
				drains++
				if got, want := bitmap.drain(), fullScanKIDrain(scan); !slices.Equal(got, want) {
					t.Fatalf("rows=%d step %d: drain %+v, full scan %+v", rows, step, got, want)
				}
			}
			n, b := kiOccupancy(bitmap)
			if ref, _ := kiOccupancy(scan); n != b || n != ref {
				t.Fatalf("rows=%d step %d: %d occupied rows, %d bits set, reference %d rows", rows, step, n, b, ref)
			}
		}
		if !slices.Equal(bitmap.rows, scan.rows) {
			t.Fatalf("rows=%d: cached rows diverge", rows)
		}
		if drains == 0 || evictions == 0 {
			t.Fatalf("rows=%d: run missed a path (%d drains, %d evictions)", rows, drains, evictions)
		}
	}
}
