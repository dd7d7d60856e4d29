package translator

import (
	"math/bits"

	"dta/internal/crc"
	"dta/internal/wire"
)

// kiAggCache pre-aggregates Key-Increment deltas at the translator (§4's
// extensibility discussion: "aggregation of counters at the translator
// to decrease the collection load at compute servers"). Deltas for the
// same key accumulate in SRAM; a colliding key flushes the incumbent's
// total as a single FETCH&ADD. The count-min semantics are unaffected —
// addition is associative — but the collector sees one atomic where it
// would have seen many.
type kiAggCache struct {
	rows []kiAggRow
	live []uint64 // one bit per occupied row: drain costs what is pending
	eng  *crc.Engine
	mask uint64
	out  []wire.KeyIncrement // drain's result, reused
}

type kiAggRow struct {
	key      wire.Key
	occupied bool
	delta    uint64
	red      uint8
}

func newKIAggCache(rows int) *kiAggCache {
	return &kiAggCache{
		rows: make([]kiAggRow, rows),
		live: make([]uint64, (rows+63)/64),
		eng:  crc.New(crc.XFER),
		mask: uint64(rows - 1),
	}
}

// add folds one increment into the cache. When the slot holds another
// key, the incumbent is evicted and returned with flushed=true; the new
// increment takes its place.
func (c *kiAggCache) add(ki *wire.KeyIncrement) (key wire.Key, delta uint64, red uint8, flushed bool) {
	i := uint64(c.eng.Sum(ki.Key[:])) & c.mask
	r := &c.rows[i]
	if r.occupied && r.key != ki.Key {
		key, delta, red = r.key, r.delta, r.red
		r.key, r.delta, r.red = ki.Key, ki.Delta, ki.Redundancy
		return key, delta, red, true
	}
	if !r.occupied {
		r.occupied = true
		r.key = ki.Key
		r.red = ki.Redundancy
		c.live[i/64] |= 1 << (i % 64)
	}
	r.delta += ki.Delta
	if ki.Redundancy > r.red {
		r.red = ki.Redundancy
	}
	return wire.Key{}, 0, 0, false
}

// drain empties the cache, returning every pending aggregate in row
// order (in the cache's own scratch, valid until the next drain).
func (c *kiAggCache) drain() []wire.KeyIncrement {
	out := c.out[:0]
	for w, word := range c.live {
		if word == 0 {
			continue
		}
		c.live[w] = 0
		for ; word != 0; word &= word - 1 {
			r := &c.rows[w*64+bits.TrailingZeros64(word)]
			out = append(out, wire.KeyIncrement{Redundancy: r.red, Key: r.key, Delta: r.delta})
			*r = kiAggRow{}
		}
	}
	c.out = out
	return out
}
