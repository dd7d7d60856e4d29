package postcarding

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dta/internal/wire"
)

// testValues builds a value space of n "switch IDs".
func testValues(n int) []uint32 {
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = uint32(i + 1)
	}
	return vs
}

func mustStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func key(v uint64) wire.Key { return wire.KeyFromUint64(v) }

func TestConfigValidation(t *testing.T) {
	vals := testValues(8)
	bad := []Config{
		{Chunks: 0, Hops: 5, Values: vals},
		{Chunks: 100, Hops: 5, Values: vals},
		{Chunks: 64, Hops: 0, Values: vals},
		{Chunks: 64, Hops: MaxHops + 1, Values: vals},
		{Chunks: 64, Hops: 5, Values: nil},
		{Chunks: 64, Hops: 5, Values: []uint32{Blank}},
		{Chunks: 64, Hops: 5, SlotBits: 33, Values: vals},
	}
	for _, c := range bad {
		if _, err := NewStore(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestChunkPadding(t *testing.T) {
	// §5.2: 5×4B chunks are padded to 32B for shift-based addressing.
	c := Config{Chunks: 64, Hops: 5, Values: testValues(4)}
	if got := c.ChunkBytes(); got != 32 {
		t.Errorf("ChunkBytes = %d, want 32", got)
	}
	c.Hops = 4
	if got := c.ChunkBytes(); got != 16 {
		t.Errorf("ChunkBytes(B=4) = %d, want 16", got)
	}
	c.Hops = 8
	if got := c.ChunkBytes(); got != 32 {
		t.Errorf("ChunkBytes(B=8) = %d, want 32", got)
	}
}

func TestWriteThenQueryFullPath(t *testing.T) {
	vals := testValues(64)
	s := mustStore(t, Config{Chunks: 1 << 10, Hops: 5, Values: vals})
	x := key(77)
	path := []uint32{3, 1, 4, 1, 5}
	for _, n := range []int{1, 2, 4} {
		if err := s.Write(x, path, 5, n); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(x, n)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || !equalU32(res.Values, path) {
			t.Errorf("N=%d: %+v", n, res)
		}
		if res.ValidChunks != n {
			t.Errorf("N=%d: valid chunks = %d", n, res.ValidChunks)
		}
	}
}

func TestShortPathBlanksTail(t *testing.T) {
	s := mustStore(t, Config{Chunks: 1 << 10, Hops: 5, Values: testValues(16)})
	x := key(5)
	path := []uint32{7, 9, 11}
	if err := s.Write(x, path, 3, 2); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Query(x, 2)
	if !res.Found || !equalU32(res.Values, path) {
		t.Errorf("short path: %+v", res)
	}
}

func TestQueryUnwrittenFlow(t *testing.T) {
	s := mustStore(t, Config{Chunks: 1 << 10, Hops: 5, Values: testValues(16)})
	res, err := s.Query(key(123456), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("found values for unwritten flow: %+v", res)
	}
}

func TestValueOutsideSpaceRejectedAtQuery(t *testing.T) {
	// A value not in V cannot be reconstructed: its g-code is not in the
	// lookup table, so the chunk is invalid rather than wrong.
	s := mustStore(t, Config{Chunks: 1 << 10, Hops: 3, Values: testValues(4)})
	x := key(9)
	if err := s.Write(x, []uint32{9999, 1, 2}, 3, 1); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Query(x, 1)
	if res.Found {
		t.Errorf("reconstructed out-of-space value: %+v", res)
	}
}

func TestOverwriteByAnotherFlowInvalidatesChunk(t *testing.T) {
	cfg := Config{Chunks: 1 << 6, Hops: 5, Values: testValues(256)}
	s := mustStore(t, cfg)
	x := key(1)
	s.Write(x, []uint32{1, 2, 3, 4, 5}, 5, 1)
	// Find a flow colliding with x's chunk 0 and overwrite.
	var y wire.Key
	for v := uint64(2); ; v++ {
		y = key(v)
		if s.Coder().Chunk(0, y) == s.Coder().Chunk(0, x) {
			break
		}
	}
	s.Write(y, []uint32{9, 9, 9, 9, 9}, 5, 1)
	// x's chunk now decodes against x's checksums as invalid (w.h.p.).
	res, _ := s.Query(x, 1)
	if res.Found {
		t.Errorf("overwritten chunk still answered for x: %+v", res)
	}
	// y remains queryable.
	resY, _ := s.Query(y, 1)
	if !resY.Found || resY.Values[0] != 9 {
		t.Errorf("y not queryable after write: %+v", resY)
	}
}

func TestRedundancySurvivesSingleOverwrite(t *testing.T) {
	cfg := Config{Chunks: 1 << 8, Hops: 5, Values: testValues(64)}
	s := mustStore(t, cfg)
	x := key(1)
	path := []uint32{1, 2, 3, 4, 5}
	s.Write(x, path, 5, 2)
	// Clobber chunk 0 directly with garbage.
	off := s.ChunkOffset(s.Coder().Chunk(0, x))
	for i := 0; i < cfg.ChunkBytes(); i++ {
		s.Buffer()[off+i] = byte(i*37 + 1)
	}
	res, _ := s.Query(x, 2)
	if !res.Found || !equalU32(res.Values, path) {
		t.Errorf("redundant chunk did not rescue query: %+v", res)
	}
	if res.ValidChunks != 1 {
		t.Errorf("valid chunks = %d, want 1", res.ValidChunks)
	}
}

func TestHopChecksumsDiffer(t *testing.T) {
	// Per-hop checksums must be genuinely different maps, not constant
	// offsets of each other (see Coder.checksum comment).
	c, err := NewCoder(Config{Chunks: 64, Hops: 5, Values: testValues(4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			d0 := c.checksum(key(0), i) ^ c.checksum(key(0), j)
			constant := true
			for v := uint64(1); v < 200; v++ {
				if c.checksum(key(v), i)^c.checksum(key(v), j) != d0 {
					constant = false
					break
				}
			}
			if constant {
				t.Errorf("hop checksums %d and %d affinely related", i, j)
			}
		}
	}
}

func TestEncodeDecodeSlotRoundTrip(t *testing.T) {
	c, err := NewCoder(Config{Chunks: 64, Hops: 5, Values: testValues(128)})
	if err != nil {
		t.Fatal(err)
	}
	f := func(kv uint64, hop uint8, vi uint8) bool {
		x := key(kv)
		h := int(hop % 5)
		v := uint32(vi%128) + 1
		stored := c.EncodeSlot(x, h, v)
		got, ok := c.DecodeSlot(x, h, stored)
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Blank round-trips too.
	stored := c.EncodeSlot(key(1), 2, Blank)
	if v, ok := c.DecodeSlot(key(1), 2, stored); !ok || v != Blank {
		t.Error("blank does not round-trip")
	}
}

func TestGCollisionDetectedAtBuild(t *testing.T) {
	// With b=8 and several thousand values, g must collide; the coder
	// refuses the configuration instead of silently mis-answering.
	vals := testValues(4000)
	_, err := NewCoder(Config{Chunks: 64, Hops: 5, SlotBits: 8, Values: vals})
	if err == nil {
		t.Error("g collision not detected")
	}
}

func TestPaperNumericExample(t *testing.T) {
	// §4/A.6: |V|=2^18, B=5, N=2, b=32, α=0.1 → empty-return ≤ 3.3%,
	// wrong output < 10^-22.
	cfg := Config{Chunks: 1 << 20, Hops: 5, SlotBits: 32, Values: testValues(4)}
	// The bound depends only on |V|; fake the size without building 2^18
	// values by computing from a config copy.
	cfg2 := cfg
	cfg2.Values = make([]uint32, 1<<18)
	if p := cfg2.EmptyReturnBound(0.1, 2); p > 0.033 || p < 0.02 {
		t.Errorf("empty-return bound = %v, want ≈0.033", p)
	}
	if p := cfg2.WrongOutputBound(0.1, 2); p > 1e-22 {
		t.Errorf("wrong-output bound = %v, want < 1e-22", p)
	}
}

func TestEmpiricalSuccessTracksEstimate(t *testing.T) {
	// Write a tracked flow, then α·C other flows; success rate should
	// match the shared Poisson estimate (b=32 → masquerade negligible).
	const chunks = 1 << 10
	cfg := Config{Chunks: chunks, Hops: 5, Values: testValues(512)}
	rnd := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2} {
		for _, alpha := range []float64{0.1, 0.5} {
			const trials = 100
			ok := 0
			for trial := 0; trial < trials; trial++ {
				s := mustStore(t, cfg)
				x := key(rnd.Uint64())
				path := []uint32{1, 2, 3, 4, 5}
				s.Write(x, path, 5, n)
				other := []uint32{6, 7, 8, 9, 10}
				for i := 0; i < int(alpha*chunks); i++ {
					s.Write(key(rnd.Uint64()|1<<63), other, 5, n)
				}
				res, _ := s.Query(x, n)
				if res.Found && equalU32(res.Values, path) {
					ok++
				}
			}
			got := float64(ok) / trials
			want := 1 - math.Pow(1-math.Exp(-alpha*float64(n)), float64(n))
			if math.Abs(got-want) > 0.13 {
				t.Errorf("N=%d α=%.1f: empirical %.2f vs estimate %.2f", n, alpha, got, want)
			}
		}
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := NewCache(100, 5); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
	if _, err := NewCache(64, 0); err == nil {
		t.Error("zero hops accepted")
	}
	if _, err := NewCache(64, MaxHops+1); err == nil {
		t.Error("excess hops accepted")
	}
}

func TestCacheAggregatesFullPath(t *testing.T) {
	c, _ := NewCache(1<<10, 5)
	x := key(42)
	var emits []Emit
	for hop := 0; hop < 5; hop++ {
		p := wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: uint32(100 + hop)}
		emits = append(emits, c.Insert(&p)...)
	}
	if len(emits) != 1 {
		t.Fatalf("emits = %d, want 1", len(emits))
	}
	e := emits[0]
	if e.Partial || e.PathLen != 5 || e.Key != x {
		t.Errorf("emit = %+v", e)
	}
	for hop := 0; hop < 5; hop++ {
		if e.Values[hop] != uint32(100+hop) {
			t.Errorf("hop %d = %d", hop, e.Values[hop])
		}
	}
	if c.Stats.FullEmits != 1 || c.Stats.EarlyEmits != 0 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if c.Occupancy() != 0 {
		t.Error("row not cleared after emit")
	}
}

func TestCacheShortPathEmitsEarly(t *testing.T) {
	// PathLen=3 triggers emission after 3 postcards (§4: egress switches
	// annotate path length so short paths don't wait for B).
	c, _ := NewCache(1<<10, 5)
	x := key(1)
	var emits []Emit
	for hop := 0; hop < 3; hop++ {
		p := wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 3, Value: 7}
		emits = append(emits, c.Insert(&p)...)
	}
	if len(emits) != 1 || emits[0].Partial || emits[0].PathLen != 3 {
		t.Fatalf("emits = %+v", emits)
	}
}

func TestCacheCollisionEvictsIncumbent(t *testing.T) {
	c, _ := NewCache(2, 5) // tiny cache: collisions guaranteed
	// Insert hops for many flows; every eviction must carry the evicted
	// flow's partial data.
	inserted := 0
	var early int
	for v := uint64(0); v < 64; v++ {
		p := wire.Postcard{Key: key(v), Hop: 0, PathLen: 5, Value: uint32(v)}
		emits := c.Insert(&p)
		inserted++
		for _, e := range emits {
			if !e.Partial {
				t.Errorf("collision emit not partial: %+v", e)
			}
			if e.PathLen != 1 {
				t.Errorf("partial emit pathlen = %d, want 1", e.PathLen)
			}
		}
		early += len(emits)
	}
	if early == 0 {
		t.Error("no early emissions despite tiny cache")
	}
	if c.Stats.EarlyEmits != uint64(early) {
		t.Errorf("stats.EarlyEmits = %d, want %d", c.Stats.EarlyEmits, early)
	}
}

func TestCacheDuplicatePostcard(t *testing.T) {
	c, _ := NewCache(64, 5)
	x := key(1)
	p := wire.Postcard{Key: x, Hop: 2, PathLen: 5, Value: 9}
	c.Insert(&p)
	c.Insert(&p)
	if c.Stats.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", c.Stats.Duplicates)
	}
}

func TestCacheDrain(t *testing.T) {
	c, _ := NewCache(64, 5)
	c.Insert(&wire.Postcard{Key: key(1), Hop: 0, PathLen: 5, Value: 1})
	c.Insert(&wire.Postcard{Key: key(2), Hop: 0, PathLen: 1, Value: 2})
	// key(2) emitted immediately (pathLen 1); key(1) still cached.
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
	drained := c.Drain()
	if len(drained) != 1 || !drained[0].Partial || drained[0].Key != key(1) {
		t.Errorf("drained = %+v", drained)
	}
	if c.Occupancy() != 0 {
		t.Error("cache not empty after drain")
	}
}

func TestCacheEndToEndWithStore(t *testing.T) {
	// Postcards scattered across flows aggregate in the cache and land in
	// the store; full emits must be queryable.
	cfg := Config{Chunks: 1 << 10, Hops: 5, Values: testValues(256)}
	s := mustStore(t, cfg)
	c, _ := NewCache(1<<12, 5)
	rnd := rand.New(rand.NewSource(11))
	flows := make([]wire.Key, 50)
	for i := range flows {
		flows[i] = key(rnd.Uint64())
	}
	apply := func(e Emit) {
		vals := make([]uint32, 0, 5)
		for i := 0; i < 5; i++ {
			if e.Values[i] != Blank {
				vals = append(vals, e.Values[i])
			}
		}
		s.Write(e.Key, vals, len(vals), 2)
	}
	// Interleave hops of all flows.
	for hop := 0; hop < 5; hop++ {
		for fi, x := range flows {
			p := wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: uint32(fi%255 + 1)}
			for _, e := range c.Insert(&p) {
				apply(e)
			}
		}
	}
	for _, e := range c.Drain() {
		apply(e)
	}
	okCount := 0
	for fi, x := range flows {
		res, _ := s.Query(x, 2)
		if res.Found && len(res.Values) == 5 && res.Values[0] == uint32(fi%255+1) {
			okCount++
		}
	}
	if okCount < 45 { // a few may be overwritten by colliding flows
		t.Errorf("only %d/50 flows queryable end-to-end", okCount)
	}
}

// fullScanDrain is Drain as it was before the occupancy bitmap: a walk
// over every row. TestCacheDrainMatchesFullScan holds Drain to it.
func fullScanDrain(c *Cache) []Emit {
	out := c.drained[:0]
	for i := range c.rows {
		r := &c.rows[i]
		if !r.occupied {
			continue
		}
		complete := r.count >= uint8(c.hops) || (r.pathLen != 0 && r.count >= r.pathLen)
		out = append(out, c.flush(r, !complete))
	}
	c.drained = out
	return out
}

// fullScanOccupancy is Occupancy as it was before the bitmap.
func fullScanOccupancy(c *Cache) int {
	n := 0
	for i := range c.rows {
		if c.rows[i].occupied {
			n++
		}
	}
	return n
}

// TestCacheDrainMatchesFullScan drives twin caches through the same random
// postcards — few rows and a small flow pool, so collisions are frequent;
// duplicate hops, hops past the bound, short and unannotated paths — and
// drains one through its bitmap, the other by a full scan, at random
// points. The emits (content and order), the rows, Occupancy and Stats
// must agree throughout.
func TestCacheDrainMatchesFullScan(t *testing.T) {
	for _, geo := range []struct{ rows, hops int }{{1, 5}, {4, 3}, {64, 5}, {256, MaxHops}} {
		rnd := rand.New(rand.NewSource(int64(geo.rows)))
		bitmap, _ := NewCache(geo.rows, geo.hops)
		scan, _ := NewCache(geo.rows, geo.hops)
		flows := 3 * geo.rows
		var prev wire.Postcard
		drains := 0
		for step := 0; step < 20000; step++ {
			p := wire.Postcard{
				Key:     key(uint64(rnd.Intn(flows))),
				Hop:     uint8(rnd.Intn(geo.hops + 2)),
				PathLen: uint8(rnd.Intn(geo.hops + 1)),
				Value:   rnd.Uint32(),
			}
			if rnd.Intn(8) == 0 {
				p = prev // a duplicate hop
			}
			prev = p
			got, want := bitmap.Insert(&p), scan.Insert(&p)
			if !slices.Equal(got, want) {
				t.Fatalf("rows=%d step %d: Insert emitted %+v, reference %+v", geo.rows, step, got, want)
			}
			if rnd.Intn(40) == 0 {
				drains++
				got, want = bitmap.Drain(), fullScanDrain(scan)
				if !slices.Equal(got, want) {
					t.Fatalf("rows=%d step %d: Drain emitted %+v, full scan %+v", geo.rows, step, got, want)
				}
			}
			if n, want := bitmap.Occupancy(), fullScanOccupancy(scan); n != want || fullScanOccupancy(bitmap) != want {
				t.Fatalf("rows=%d step %d: Occupancy %d, full scan %d (own rows %d)", geo.rows, step, n, want, fullScanOccupancy(bitmap))
			}
		}
		if !slices.Equal(bitmap.rows, scan.rows) {
			t.Fatalf("rows=%d: cached rows diverge", geo.rows)
		}
		if bitmap.Stats != scan.Stats {
			t.Fatalf("rows=%d: Stats %+v, reference %+v", geo.rows, bitmap.Stats, scan.Stats)
		}
		if drains == 0 || bitmap.Stats.FullEmits == 0 || bitmap.Stats.EarlyEmits == 0 || bitmap.Stats.Duplicates == 0 {
			t.Fatalf("rows=%d: run missed a path (%d drains, %+v)", geo.rows, drains, bitmap.Stats)
		}
	}
}

func BenchmarkCacheInsert(b *testing.B) {
	c, _ := NewCache(1<<15, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := wire.Postcard{Key: key(uint64(i % 4096)), Hop: uint8(i % 5), PathLen: 5, Value: uint32(i)}
		c.Insert(&p)
	}
}

// BenchmarkCacheDrain is the epoch-end cost of the paper's 32K-row cache
// with nothing, 1 % and every row pending: each iteration refills the
// rows (untimed) and drains them.
func BenchmarkCacheDrain(b *testing.B) {
	const rows = 1 << 15
	for _, bc := range []struct {
		name   string
		filled int
	}{{"empty", 0}, {"1pct", rows / 100}, {"full", rows}} {
		b.Run(bc.name, func(b *testing.B) {
			c, _ := NewCache(rows, 5)
			// One postcard per row: a distinct flow for each row index.
			var fill []wire.Postcard
			taken := make([]bool, rows)
			for v := uint64(0); len(fill) < bc.filled; v++ {
				if i := c.rowIndex(key(v)); !taken[i] {
					taken[i] = true
					fill = append(fill, wire.Postcard{Key: key(v), PathLen: 5, Value: 1})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range fill {
					c.Insert(&fill[j])
				}
				b.StartTimer()
				if n := len(c.Drain()); n != bc.filled {
					b.Fatalf("drained %d rows, want %d", n, bc.filled)
				}
			}
		})
	}
}

func BenchmarkStoreWrite(b *testing.B) {
	s, _ := NewStore(Config{Chunks: 1 << 16, Hops: 5, Values: testValues(1024)})
	path := []uint32{1, 2, 3, 4, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Write(key(uint64(i)), path, 5, 1)
	}
}

func BenchmarkStoreQuery(b *testing.B) {
	s, _ := NewStore(Config{Chunks: 1 << 16, Hops: 5, Values: testValues(1024)})
	path := []uint32{1, 2, 3, 4, 5}
	for i := 0; i < 1<<14; i++ {
		s.Write(key(uint64(i)), path, 5, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(key(uint64(i%(1<<14))), 2)
	}
}

// TestTouchOnlyReads pins the planned-read entries: Plan refuses an
// out-of-range n before it computes any index, QueryAt over a plan is
// Query, and neither it nor Touch writes a byte of the store.
func TestTouchOnlyReads(t *testing.T) {
	s := mustStore(t, Config{Chunks: 1 << 9, Hops: 5, Values: testValues(64)})
	for i := uint64(0); i < 300; i++ {
		path := []uint32{uint32(i%64) + 1, uint32((i+1)%64) + 1, uint32((i+2)%64) + 1}
		if err := s.Write(key(i), path, len(path), 2); err != nil {
			t.Fatal(err)
		}
	}
	before := bytes.Clone(s.Buffer())
	var buf [MaxRedundancy]uint64
	for _, n := range []int{-1, 0, MaxRedundancy + 1} {
		if chunks, err := s.Coder().Plan(key(1), n, buf[:0]); err == nil || len(chunks) != 0 {
			t.Errorf("Plan(n=%d) = %v, %v: want no index and an error", n, chunks, err)
		}
	}
	for i := uint64(0); i < 600; i++ { // the upper half was never written
		n := 1 + int(i%MaxRedundancy)
		chunks, err := s.Coder().Plan(key(i), n, buf[:0])
		if err != nil || len(chunks) != n {
			t.Fatalf("Plan(n=%d) = %v, %v", n, chunks, err)
		}
		s.Touch(chunks)
		want, err := s.Query(key(i), n)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.QueryAt(key(i), chunks); got.Found != want.Found || got.ValidChunks != want.ValidChunks || !equalU32(got.Values, want.Values) {
			t.Fatalf("flow %d n=%d: QueryAt %+v, Query %+v", i, n, got, want)
		}
	}
	if !bytes.Equal(before, s.Buffer()) {
		t.Fatal("a planned read wrote to the store")
	}
}
