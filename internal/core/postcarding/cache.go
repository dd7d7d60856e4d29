package postcarding

import (
	"fmt"
	"math/bits"

	"dta/internal/crc"
	"dta/internal/wire"
)

// Cache is the translator-side postcard aggregator (§5.2): an SRAM hash
// table keyed by flow ID in which per-hop postcards accumulate until a
// full path report can be emitted as one chunk-sized RDMA WRITE.
//
// Emissions trigger in three ways, mirroring the Tofino implementation:
// the row's postcard counter reaches the flow's path length; the row's
// counter reaches the bound B; or another flow hashes into an occupied
// row, which flushes the incumbent early (a partial report — Fig. 14
// counts those as failures).
type Cache struct {
	rows []cacheRow
	// live holds one bit per row, set while the row is occupied, so an
	// epoch-end Drain costs what is cached, not the table's size.
	live   []uint64
	hops   int
	idxEng *crc.Engine
	mask   uint64
	// inserted and drained back what Insert and Drain return, so the
	// steady state emits without allocating.
	inserted [2]Emit
	drained  []Emit
	// Stats tracks aggregation effectiveness for Fig. 14.
	Stats CacheStats
}

type cacheRow struct {
	key      wire.Key
	occupied bool
	count    uint8
	pathLen  uint8
	present  uint8 // bitmask of collected hops
	values   [MaxHops]uint32
}

// CacheStats counts aggregation outcomes.
type CacheStats struct {
	// Postcards is the number of postcards inserted.
	Postcards uint64
	// FullEmits is the number of complete path reports emitted.
	FullEmits uint64
	// EarlyEmits is the number of partial reports flushed by collisions.
	EarlyEmits uint64
	// Duplicates is the number of postcards for an already-present hop.
	Duplicates uint64
}

// Emit is an aggregated flow report ready to be written to the collector.
type Emit struct {
	Key     wire.Key
	Values  [MaxHops]uint32 // Blank where the hop was not collected
	PathLen int             // hops carrying real values (counted ones)
	Partial bool            // true for collision-triggered early emissions
}

// NewCache builds a cache with the given number of rows (a power of two;
// the paper's prototype uses 32K) aggregating up to hops postcards.
func NewCache(rows int, hops int) (*Cache, error) {
	if rows <= 0 || rows&(rows-1) != 0 {
		return nil, fmt.Errorf("postcarding: cache rows %d not a power of two", rows)
	}
	if hops < 1 || hops > MaxHops {
		return nil, fmt.Errorf("postcarding: hops %d out of range [1,%d]", hops, MaxHops)
	}
	return &Cache{
		rows:   make([]cacheRow, rows),
		live:   make([]uint64, (rows+63)/64),
		hops:   hops,
		idxEng: crc.New(crc.Q),
		mask:   uint64(rows - 1),
	}, nil
}

// rowIndex hashes a flow to its cache row.
func (c *Cache) rowIndex(x wire.Key) uint64 {
	return uint64(c.idxEng.Sum128((*[wire.KeySize]byte)(&x))) & c.mask
}

// flush converts a row into an Emit, blanking uncollected hops.
func (c *Cache) flush(r *cacheRow, partial bool) Emit {
	e := Emit{Key: r.key, Partial: partial}
	for i := 0; i < c.hops; i++ {
		if r.present&(1<<uint(i)) != 0 {
			e.Values[i] = r.values[i]
			e.PathLen++
		} else {
			e.Values[i] = Blank
		}
	}
	for i := c.hops; i < MaxHops; i++ {
		e.Values[i] = Blank
	}
	*r = cacheRow{}
	return e
}

// Insert adds one postcard. If the insertion completes a path (or evicts
// an incumbent flow), the emitted report is returned — in the cache's own
// scratch, valid until the next Insert.
//
// pathLen may be zero when the egress switch did not annotate the path
// length; the cache then waits for the full bound B.
func (c *Cache) Insert(p *wire.Postcard) []Emit {
	emits := c.inserted[:0] // at most an eviction and a completion
	c.Stats.Postcards++
	hop := int(p.Hop)
	if hop >= c.hops {
		hop = c.hops - 1
	}
	i := c.rowIndex(p.Key)
	r := &c.rows[i]
	if r.occupied && r.key != p.Key {
		// Collision: flush the incumbent early.
		c.Stats.EarlyEmits++
		emits = append(emits, c.flush(r, true))
	}
	if !r.occupied {
		r.occupied = true
		r.key = p.Key
		c.live[i/64] |= 1 << (i % 64)
	}
	if r.present&(1<<uint(hop)) != 0 {
		c.Stats.Duplicates++
	} else {
		r.present |= 1 << uint(hop)
		r.count++
	}
	r.values[hop] = p.Value
	if p.PathLen != 0 && (r.pathLen == 0 || p.PathLen < r.pathLen) {
		r.pathLen = p.PathLen
	}
	target := uint8(c.hops)
	if r.pathLen != 0 && r.pathLen < target {
		target = r.pathLen
	}
	if r.count >= target {
		c.Stats.FullEmits++
		emits = append(emits, c.flush(r, false))
		c.live[i/64] &^= 1 << (i % 64)
	}
	return emits
}

// Drain flushes every occupied row (e.g. at shutdown or epoch end), in
// row order. All drained reports are marked partial unless they happen to
// be complete. The result is the cache's own scratch, valid until the
// next Drain.
func (c *Cache) Drain() []Emit {
	out := c.drained[:0]
	for w, word := range c.live {
		if word == 0 {
			continue
		}
		c.live[w] = 0
		for ; word != 0; word &= word - 1 {
			r := &c.rows[w*64+bits.TrailingZeros64(word)]
			complete := r.count >= uint8(c.hops) || (r.pathLen != 0 && r.count >= r.pathLen)
			out = append(out, c.flush(r, !complete))
		}
	}
	c.drained = out
	return out
}
