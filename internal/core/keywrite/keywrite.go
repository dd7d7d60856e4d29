// Package keywrite implements DTA's Key-Write primitive: a probabilistic,
// write-only key-value store designed so that a switch (the translator)
// can insert telemetry with nothing but RDMA WRITEs, and the collector can
// answer queries without the CPU ever having touched the inserts.
//
// A key's value is written, together with a checksum of the key, to N
// pseudo-random slots chosen by stateless global hash functions
// (Algorithm 1 of the paper). Queries recompute the slots, keep the
// candidates whose stored checksum matches, and return the plurality
// value (Algorithm 2). Redundancy N trades throughput for resilience
// against overwrites; the checksum width b bounds the probability of
// returning a wrong value (Appendix A.5, reproduced in bounds.go).
package keywrite

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"

	"dta/internal/crc"
	"dta/internal/wire"
)

// MaxRedundancy is the largest supported N. It matches the paper's
// evaluation range (Fig. 12 sweeps N up to 8).
const MaxRedundancy = 8

// ChecksumSize is the stored checksum width in bytes. The paper stores a
// concatenated 4 B CRC; narrower logical widths (b bits) are emulated by
// masking.
const ChecksumSize = 4

// Config describes the geometry of a Key-Write store.
type Config struct {
	// Slots is the number of key-value slots. It must be a power of two
	// so switch pipelines can mask instead of dividing (§5.2).
	Slots uint64
	// DataSize is the value width in bytes (4 for INT postcards, 20 for
	// 5-hop path traces).
	DataSize int
	// ChecksumBits is the logical checksum width b ∈ [1,32]. Smaller b
	// trades wrong-output probability for memory (§A.5). 0 means 32.
	ChecksumBits int
}

func (c *Config) validate() error {
	if c.Slots == 0 || c.Slots&(c.Slots-1) != 0 {
		return fmt.Errorf("keywrite: slots %d not a power of two", c.Slots)
	}
	if c.DataSize <= 0 || c.DataSize > wire.MaxData {
		return fmt.Errorf("keywrite: data size %d out of range (0,%d]", c.DataSize, wire.MaxData)
	}
	if c.ChecksumBits < 0 || c.ChecksumBits > 32 {
		return fmt.Errorf("keywrite: checksum bits %d out of range [0,32]", c.ChecksumBits)
	}
	return nil
}

// SlotSize returns the stored size of one slot: checksum plus value.
func (c Config) SlotSize() int { return ChecksumSize + c.DataSize }

// BufferSize returns the memory required for the store.
func (c Config) BufferSize() int { return int(c.Slots) * c.SlotSize() }

// Indexer holds the stateless hash logic shared by the translator (to
// address writes) and the collector (to address queries). It carries no
// per-key state: any party with the same configuration computes the same
// slots, which is what lets every switch in the network share one store.
//
// The N slot hashes use N *distinct CRC polynomials* (crc.Family). This
// matters: deriving them from one polynomial with an index prefix would
// make them linearly related (CRC is linear in its input), so a single
// colliding key would overwrite all N replicas at once, silently
// destroying the redundancy. This is exactly why §5.2 emphasises
// "carefully selected CRC polynomials".
type Indexer struct {
	cfg Config
	// hash is the checksum polynomial (CRC-32D) as member 0, then the
	// slot family: one Sum128 over its first n+1 members plans a key.
	hash     *crc.Family
	slotMask uint64
	csumMask uint32
}

// NewIndexer builds an Indexer for the configuration.
func NewIndexer(cfg Config) (*Indexer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mask := uint32(0xffffffff)
	if cfg.ChecksumBits != 0 && cfg.ChecksumBits < 32 {
		mask = 1<<uint(cfg.ChecksumBits) - 1
	}
	return &Indexer{
		cfg: cfg,
		// The checksum polynomial (CRC-32D) is outside the slot family:
		// see the crc package for why sharing one would be fatal.
		hash:     crc.MustFamilyAfter(crc.D, MaxRedundancy),
		slotMask: cfg.Slots - 1,
		csumMask: mask,
	}, nil
}

// Slot computes the n'th redundant location for key.
func (x *Indexer) Slot(n int, key wire.Key) uint64 {
	return uint64(x.hash.Hash16(n+1, (*[wire.KeySize]byte)(&key))) & x.slotMask
}

// Checksum computes the key checksum, masked to the configured width.
func (x *Indexer) Checksum(key wire.Key) uint32 {
	return x.hash.Hash16(0, (*[wire.KeySize]byte)(&key)) & x.csumMask
}

// Plan is the read side's address generation: it validates n, then
// appends key's n slot indexes to dst and returns them with the key
// checksum. Stores of equal geometry answer QueryAt and Touch over one
// plan, so a replicated lookup hashes once for all its owners.
func (x *Indexer) Plan(key wire.Key, n int, dst []uint64) (slots []uint64, csum uint32, err error) {
	if n < 1 || n > MaxRedundancy {
		return dst, 0, fmt.Errorf("keywrite: redundancy %d out of range [1,%d]", n, MaxRedundancy)
	}
	var buf [MaxRedundancy]uint32
	planned, csum := x.PlanWrite(&key, n, buf[:0])
	for _, slot := range planned {
		dst = append(dst, uint64(slot))
	}
	return dst, csum, nil
}

// PlanWrite is the write side's address generation (the translator's
// stage A): Plan for an n already in [1, MaxRedundancy], appending
// 32-bit slot indexes. The checksum and the n slots come from one
// kernel call.
func (x *Indexer) PlanWrite(key *wire.Key, n int, dst []uint32) (slots []uint32, csum uint32) {
	var h [MaxRedundancy + 1]uint32
	x.hash.Sum128((*[wire.KeySize]byte)(key), h[:n+1])
	for _, s := range h[1 : n+1] {
		dst = append(dst, uint32(uint64(s)&x.slotMask))
	}
	return dst, h[0] & x.csumMask
}

// Offset converts a slot index to a byte offset within the store buffer.
func (x *Indexer) Offset(slot uint64) int { return int(slot) * x.cfg.SlotSize() }

// Config returns the indexer's configuration.
func (x *Indexer) Config() Config { return x.cfg }

// ErrShortBuffer reports a store buffer smaller than the geometry needs.
var ErrShortBuffer = errors.New("keywrite: buffer smaller than configured geometry")

// Store is the collector-side view of the key-value memory. The buffer is
// typically an RDMA-registered region that the translator writes into;
// Store itself only ever reads it for queries. The direct-write methods
// exist for simulation and tests, applying exactly the bytes an RDMA
// WRITE crafted by the translator would.
type Store struct {
	x   *Indexer
	buf []byte
}

// NewStore allocates a store with its own backing buffer.
func NewStore(cfg Config) (*Store, error) {
	x, err := NewIndexer(cfg)
	if err != nil {
		return nil, err
	}
	return &Store{x: x, buf: make([]byte, cfg.BufferSize())}, nil
}

// NewStoreOver builds a store view over an existing buffer (an RDMA
// memory region).
func NewStoreOver(cfg Config, buf []byte) (*Store, error) {
	x, err := NewIndexer(cfg)
	if err != nil {
		return nil, err
	}
	if len(buf) < cfg.BufferSize() {
		return nil, ErrShortBuffer
	}
	return &Store{x: x, buf: buf[:cfg.BufferSize()]}, nil
}

// Indexer returns the store's indexer.
func (s *Store) Indexer() *Indexer { return s.x }

// Buffer exposes the backing memory (for registering with an RDMA device).
func (s *Store) Buffer() []byte { return s.buf }

// writeSlot applies one slot image, as the DMA engine would.
func (s *Store) writeSlot(slot uint64, csum uint32, data []byte) {
	off := s.x.Offset(slot)
	s.buf[off] = byte(csum >> 24)
	s.buf[off+1] = byte(csum >> 16)
	s.buf[off+2] = byte(csum >> 8)
	s.buf[off+3] = byte(csum)
	copy(s.buf[off+ChecksumSize:off+ChecksumSize+s.x.cfg.DataSize], data)
}

// Write inserts data under key with redundancy n, performing locally what
// the translator performs with n RDMA WRITEs (Algorithm 1). Data longer
// than the configured width is truncated; shorter data is zero-padded.
func (s *Store) Write(key wire.Key, data []byte, n int) error {
	var buf [MaxRedundancy]uint64
	slots, csum, err := s.x.Plan(key, n, buf[:0])
	if err != nil {
		return err
	}
	var padded [wire.MaxData]byte
	d := data
	if len(d) != s.x.cfg.DataSize {
		copy(padded[:s.x.cfg.DataSize], d)
		d = padded[:s.x.cfg.DataSize]
	}
	for _, slot := range slots {
		s.writeSlot(slot, csum, d)
	}
	return nil
}

// readSlot returns the stored checksum and a view of the value bytes.
func (s *Store) readSlot(slot uint64) (uint32, []byte) {
	off := s.x.Offset(slot)
	csum := uint32(s.buf[off])<<24 | uint32(s.buf[off+1])<<16 |
		uint32(s.buf[off+2])<<8 | uint32(s.buf[off+3])
	return csum & s.x.csumMask, s.buf[off+ChecksumSize : off+ChecksumSize+s.x.cfg.DataSize]
}

// QueryResult carries the outcome of a query and diagnostic detail.
type QueryResult struct {
	// Data is the winning value (a view into the store; copy to retain).
	Data []byte
	// Found reports whether a value met the consensus threshold.
	Found bool
	// Matches is how many of the N slots carried the key's checksum.
	Matches int
	// Agreements is how many slots carried the winning value.
	Agreements int
}

// Query looks key up across n redundant slots and returns the value that
// appears most often among checksum-validated candidates (Algorithm 2).
// threshold is the consensus parameter T: the winner must appear at least
// that many times (1 = plurality, the paper's default). Ties between
// distinct values yield an empty return, never an arbitrary choice.
func (s *Store) Query(key wire.Key, n, threshold int) (QueryResult, error) {
	var buf [MaxRedundancy]uint64
	slots, csum, err := s.x.Plan(key, n, buf[:0])
	if err != nil {
		return QueryResult{}, err
	}
	return s.QueryAt(csum, slots, threshold), nil
}

// Touch loads one byte from each planned slot and does nothing else. A
// replicated lookup touches every owner's slots before reading the
// first, so the cache misses overlap instead of queueing behind each
// owner's vote. Unlike the write side's rdma.Device.PreTouch, which
// hints, these are demand loads: the lookup reads the slots at once,
// with no work in between for a hint's miss to overlap, so a hint would
// save nothing here.
func (s *Store) Touch(slots []uint64) {
	var acc byte
	for _, slot := range slots {
		acc += s.buf[s.x.Offset(slot)]
	}
	// Keeps the loads live without a write: lookups touch concurrently.
	runtime.KeepAlive(acc)
}

// QueryAt is Query over slots and a checksum planned beforehand
// (Indexer.Plan, on this store's indexer or one of equal geometry).
func (s *Store) QueryAt(want uint32, slots []uint64, threshold int) QueryResult {
	if threshold < 1 {
		threshold = 1
	}
	var cands [MaxRedundancy][]byte
	nc := 0
	for _, slot := range slots {
		csum, val := s.readSlot(slot)
		if csum == want {
			cands[nc] = val
			nc++
		}
	}
	res := QueryResult{Matches: nc}
	if nc == 0 {
		return res
	}
	// Plurality vote over at most MaxRedundancy candidates: O(N²)
	// comparisons with no allocation.
	bestIdx, bestCount, tie := 0, 0, false
	for i := 0; i < nc; i++ {
		count := 1
		for j := 0; j < nc; j++ {
			if j != i && bytes.Equal(cands[i], cands[j]) {
				count++
			}
		}
		if count > bestCount {
			bestIdx, bestCount, tie = i, count, false
		} else if count == bestCount && !bytes.Equal(cands[i], cands[bestIdx]) {
			tie = true
		}
	}
	res.Agreements = bestCount
	if tie || bestCount < threshold {
		return res
	}
	res.Data = cands[bestIdx]
	res.Found = true
	return res
}
