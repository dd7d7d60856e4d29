// Package postcarding implements DTA's Postcarding primitive: aggregated
// collection of per-hop INT postcards (INT-XD/MX) into consecutive memory
// chunks, one chunk per flow, written with a single RDMA WRITE.
//
// The collector memory is divided into C chunks of B slots (Fig. 5). The
// i'th postcard of flow x is encoded as checksum(x,i) ⊕ g(v) into slot i
// of chunk h(x), where g maps the value space V into b-bit strings and a
// blank value ⊔ fills hops beyond the path length so every flow always
// occupies all B slots. Queries succeed only if every slot of a chunk
// decodes consistently, which amplifies the per-slot collision chance
// (|V|+1)·2^−b to the B'th power (§4, Appendix A.6).
//
// The translator-side Cache aggregates postcards per flow before the
// chunk write; collisions on the cache evict the incumbent flow early,
// which surfaces as partial reports (counted as failures in Fig. 14).
package postcarding

import (
	"errors"
	"fmt"
	"runtime"

	"dta/internal/analysis"
	"dta/internal/crc"
	"dta/internal/wire"
)

// MaxHops is the largest supported path bound B.
const MaxHops = 8

// MaxRedundancy is the largest supported chunk redundancy N.
const MaxRedundancy = 8

// SlotSize is the stored size of one hop slot (32-bit payloads, §5.2).
const SlotSize = 4

// Blank is the sentinel "no postcard collected" value ⊔. It must not be a
// member of the value space.
const Blank = 0xffffffff

// Config describes a Postcarding store.
type Config struct {
	// Chunks is the number of flow chunks C. Must be a power of two.
	Chunks uint64
	// Hops is the path bound B (e.g. 5 for a fat tree).
	Hops int
	// SlotBits is the logical slot width b ∈ [1,32]. 0 means 32.
	SlotBits int
	// Values enumerates the value space V (e.g. all switch IDs). Queries
	// can only reconstruct values registered here; the paper pre-populates
	// the same lookup table of g(v) → v pairs.
	Values []uint32
}

func (c *Config) validate() error {
	if c.Chunks == 0 || c.Chunks&(c.Chunks-1) != 0 {
		return fmt.Errorf("postcarding: chunks %d not a power of two", c.Chunks)
	}
	if c.Hops < 1 || c.Hops > MaxHops {
		return fmt.Errorf("postcarding: hops %d out of range [1,%d]", c.Hops, MaxHops)
	}
	if c.SlotBits < 0 || c.SlotBits > 32 {
		return fmt.Errorf("postcarding: slot bits %d out of range [0,32]", c.SlotBits)
	}
	if len(c.Values) == 0 {
		return errors.New("postcarding: empty value space")
	}
	for _, v := range c.Values {
		if v == Blank {
			return errors.New("postcarding: value space contains the blank sentinel")
		}
	}
	return nil
}

// chunkStride returns the number of slots a chunk occupies in memory:
// Hops rounded up to a power of two, because address computation in the
// switch pipeline uses shifts (§5.2: 20 B chunks are padded to 32 B).
func (c Config) chunkStride() int {
	s := 1
	for s < c.Hops {
		s <<= 1
	}
	return s
}

// ChunkBytes is the padded on-the-wire and in-memory size of one chunk.
func (c Config) ChunkBytes() int { return c.chunkStride() * SlotSize }

// BufferSize returns the memory required for the store.
func (c Config) BufferSize() int { return int(c.Chunks) * c.ChunkBytes() }

// Coder holds the stateless hashing and value-encoding logic shared by
// the translator (writes) and the collector (queries).
type Coder struct {
	cfg     Config
	chunks  *crc.Family // chunk selection h_1..h_N (distinct polynomials)
	csumEng *crc.Engine // per-hop checksum base (input rotated per hop)
	gEng    *crc.Engine // value encoding g
	mask    uint32
	lookup  map[uint32]uint32 // g(v) → v, pre-populated (constant-time query)
	gBlank  uint32
	stride  int
}

// NewCoder builds a Coder for the configuration.
func NewCoder(cfg Config) (*Coder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mask := uint32(0xffffffff)
	if cfg.SlotBits != 0 && cfg.SlotBits < 32 {
		mask = 1<<uint(cfg.SlotBits) - 1
	}
	c := &Coder{
		cfg:     cfg,
		chunks:  crc.MustFamily(MaxRedundancy),
		csumEng: crc.New(crc.D),
		gEng:    crc.New(crc.K32K),
		mask:    mask,
		lookup:  make(map[uint32]uint32, len(cfg.Values)+1),
		stride:  cfg.chunkStride(),
	}
	c.gBlank = c.gEng.Sum64(uint64(Blank)) & mask
	c.lookup[c.gBlank] = Blank
	for _, v := range cfg.Values {
		gv := c.g(v)
		if prev, dup := c.lookup[gv]; dup && prev != v {
			return nil, fmt.Errorf("postcarding: g collision between values %d and %d at b=%d; widen SlotBits", prev, v, cfg.SlotBits)
		}
		c.lookup[gv] = v
	}
	return c, nil
}

// Config returns the coder's configuration.
func (c *Coder) Config() Config { return c.cfg }

// g encodes a value into its b-bit code.
func (c *Coder) g(v uint32) uint32 { return c.gEng.Sum64(uint64(v)) & c.mask }

// Chunk computes the j'th redundant chunk index for flow key x.
func (c *Coder) Chunk(j int, x wire.Key) uint64 {
	return uint64(c.chunks.Hash16(j, (*[wire.KeySize]byte)(&x))) & (c.cfg.Chunks - 1)
}

// Plan is the read side's address generation: it validates n, then
// appends flow x's n chunk indexes to dst. Stores of equal geometry
// answer QueryAt and Touch over one plan.
func (c *Coder) Plan(x wire.Key, n int, dst []uint64) ([]uint64, error) {
	if n < 1 || n > MaxRedundancy {
		return dst, fmt.Errorf("postcarding: redundancy %d out of range [1,%d]", n, MaxRedundancy)
	}
	for j := 0; j < n; j++ {
		dst = append(dst, c.Chunk(j, x))
	}
	return dst, nil
}

// checksum computes the hop-specific checksum(x, i). Each hop uses a
// distinct linear map — the input is rotated by i bytes before hashing —
// mirroring the per-hop custom CRC polynomials of §5.2. (An additive hop
// constant would NOT work: CRC is linear, so the per-hop checksums of two
// flows would differ by a hop-independent constant and hop collisions
// would be perfectly correlated.)
func (c *Coder) checksum(x wire.Key, hop int) uint32 {
	var buf [wire.KeySize]byte
	for i := range buf {
		buf[i] = x[(i+hop)%wire.KeySize]
	}
	return c.csumEng.Sum(buf[:]) & c.mask
}

// EncodeSlot produces the stored image of hop i of flow x carrying value
// v (Blank for uncollected hops).
func (c *Coder) EncodeSlot(x wire.Key, hop int, v uint32) uint32 {
	var gv uint32
	if v == Blank {
		gv = c.gBlank
	} else {
		gv = c.g(v)
	}
	return (c.checksum(x, hop) ^ gv) & c.mask
}

// DecodeSlot inverts EncodeSlot: it strips the checksum and consults the
// pre-populated lookup table. ok is false if the residue is not the code
// of any registered value (an invalid slot).
func (c *Coder) DecodeSlot(x wire.Key, hop int, stored uint32) (v uint32, ok bool) {
	residue := (stored ^ c.checksum(x, hop)) & c.mask
	v, ok = c.lookup[residue]
	return v, ok
}

// EncodeChunkSparse fills out with the encoded image of a flow's
// postcards where values[i] == Blank marks hops that were not collected.
// Hop positions are preserved: a missing middle hop stays blank, so a
// query sees an invalid chunk rather than a shifted (wrong) path.
func (c *Coder) EncodeChunkSparse(x wire.Key, values *[MaxHops]uint32, out []byte) []byte {
	out = out[:0]
	for i := 0; i < c.stride; i++ {
		var s uint32
		switch {
		case i < c.cfg.Hops:
			s = c.EncodeSlot(x, i, values[i])
		default:
			s = 0 // padding slots beyond B
		}
		out = append(out, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return out
}

// EncodeChunk fills out (stride slots) with the encoded image of a flow's
// postcards: values[0:pathLen] real, the rest blank. The returned slice
// is exactly the RDMA WRITE payload the translator emits.
func (c *Coder) EncodeChunk(x wire.Key, values []uint32, pathLen int, out []byte) []byte {
	if pathLen > len(values) {
		pathLen = len(values)
	}
	if pathLen > c.cfg.Hops {
		pathLen = c.cfg.Hops
	}
	out = out[:0]
	for i := 0; i < c.stride; i++ {
		var s uint32
		switch {
		case i < pathLen:
			s = c.EncodeSlot(x, i, values[i])
		case i < c.cfg.Hops:
			s = c.EncodeSlot(x, i, Blank)
		default:
			s = 0 // padding slots beyond B
		}
		out = append(out, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return out
}

// Store is the collector-side view of the postcarding memory.
type Store struct {
	c   *Coder
	buf []byte
}

// NewStore allocates a store with its own backing buffer.
func NewStore(cfg Config) (*Store, error) {
	c, err := NewCoder(cfg)
	if err != nil {
		return nil, err
	}
	return &Store{c: c, buf: make([]byte, cfg.BufferSize())}, nil
}

// NewStoreOver builds a store view over an existing buffer (an RDMA
// memory region).
func NewStoreOver(cfg Config, buf []byte) (*Store, error) {
	c, err := NewCoder(cfg)
	if err != nil {
		return nil, err
	}
	if len(buf) < cfg.BufferSize() {
		return nil, errors.New("postcarding: buffer smaller than configured geometry")
	}
	return &Store{c: c, buf: buf[:cfg.BufferSize()]}, nil
}

// Coder returns the store's coder.
func (s *Store) Coder() *Coder { return s.c }

// Buffer exposes the backing memory (for registering with an RDMA device).
func (s *Store) Buffer() []byte { return s.buf }

// ChunkOffset returns the byte offset of a chunk.
func (s *Store) ChunkOffset(chunk uint64) int { return int(chunk) * s.c.cfg.ChunkBytes() }

// Write inserts a flow's postcards with redundancy n, performing locally
// what the translator performs with n chunk-sized RDMA WRITEs.
func (s *Store) Write(x wire.Key, values []uint32, pathLen, n int) error {
	if n < 1 || n > MaxRedundancy {
		return fmt.Errorf("postcarding: redundancy %d out of range [1,%d]", n, MaxRedundancy)
	}
	var chunk [MaxHops * SlotSize]byte
	payload := s.c.EncodeChunk(x, values, pathLen, chunk[:])
	for j := 0; j < n; j++ {
		off := s.ChunkOffset(s.c.Chunk(j, x))
		copy(s.buf[off:], payload)
	}
	return nil
}

// QueryResult carries a reconstruction outcome.
type QueryResult struct {
	// Values are the reconstructed per-hop values (length = path length).
	Values []uint32
	// Found reports whether exactly one consistent reconstruction exists.
	Found bool
	// ValidChunks is how many of the N chunks decoded consistently.
	ValidChunks int
}

// decodeChunk attempts to reconstruct a flow's values from one chunk.
// Validity requires a prefix of real values followed only by blanks.
func (s *Store) decodeChunk(x wire.Key, chunk uint64, out []uint32) ([]uint32, bool) {
	off := s.ChunkOffset(chunk)
	out = out[:0]
	seenBlank := false
	for i := 0; i < s.c.cfg.Hops; i++ {
		o := off + i*SlotSize
		stored := uint32(s.buf[o])<<24 | uint32(s.buf[o+1])<<16 |
			uint32(s.buf[o+2])<<8 | uint32(s.buf[o+3])
		v, ok := s.c.DecodeSlot(x, i, stored)
		if !ok {
			return out, false
		}
		if v == Blank {
			seenBlank = true
			continue
		}
		if seenBlank {
			// A real value after a blank: not a valid prefix.
			return out, false
		}
		out = append(out, v)
	}
	return out, true
}

// Query reconstructs flow x's postcards from its n redundant chunks. The
// answer is returned only when at least one chunk is valid and all valid
// chunks agree (§4). The chunks are touched before the first is decoded:
// a decode's per-hop checksums would otherwise sit between the misses.
func (s *Store) Query(x wire.Key, n int) (QueryResult, error) {
	var buf [MaxRedundancy]uint64
	chunks, err := s.c.Plan(x, n, buf[:0])
	if err != nil {
		return QueryResult{}, err
	}
	s.Touch(chunks)
	return s.QueryAt(x, chunks), nil
}

// Touch loads one byte from each planned chunk and does nothing else
// (see keywrite.Store.Touch).
func (s *Store) Touch(chunks []uint64) {
	var acc byte
	for _, chunk := range chunks {
		acc += s.buf[s.ChunkOffset(chunk)]
	}
	// Keeps the loads live without a write: lookups touch concurrently.
	runtime.KeepAlive(acc)
}

// QueryAt is Query over chunks planned beforehand (Coder.Plan, on this
// store's coder or one of equal geometry), without the touch.
func (s *Store) QueryAt(x wire.Key, chunks []uint64) QueryResult {
	var res QueryResult
	var first [MaxHops]uint32
	var cur [MaxHops]uint32
	var winner []uint32
	for _, chunk := range chunks {
		vals, ok := s.decodeChunk(x, chunk, cur[:0])
		if !ok {
			continue
		}
		if res.ValidChunks == 0 {
			winner = append(first[:0], vals...)
		} else if !equalU32(winner, vals) {
			// Valid chunks disagree: refuse to answer.
			res.ValidChunks++
			res.Found = false
			return res
		}
		res.ValidChunks++
	}
	if res.ValidChunks == 0 {
		return res
	}
	res.Values = winner
	res.Found = true
	return res
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maskCollision returns (|V|+1)·2^−b, the per-slot masquerade chance.
func (c Config) maskCollision() float64 {
	b := c.SlotBits
	if b <= 0 || b > 32 {
		b = 32
	}
	p := float64(len(c.Values)+1) / exp2(b)
	if p > 1 {
		p = 1
	}
	return p
}

func exp2(b int) float64 {
	r := 1.0
	for i := 0; i < b; i++ {
		r *= 2
	}
	return r
}

// chunkCollision returns q = ((|V|+1)·2^−b)^B, the probability that an
// overwritten chunk masquerades as valid information for the queried flow.
func (c Config) chunkCollision() float64 {
	q := 1.0
	for i := 0; i < c.Hops; i++ {
		q *= c.maskCollision()
	}
	return q
}

// EmptyReturnBound bounds the probability that a query for a collected
// flow returns no answer (eqs. 5–7 / A.6 eqs. 9–11).
func (c Config) EmptyReturnBound(alpha float64, n int) float64 {
	return analysis.EmptyReturnBound(alpha, n, c.chunkCollision())
}

// WrongOutputBound bounds the probability that a query returns wrong
// values (eq. 8 / A.6 eq. 12).
func (c Config) WrongOutputBound(alpha float64, n int) float64 {
	return analysis.WrongOutputBound(alpha, n, c.chunkCollision())
}
