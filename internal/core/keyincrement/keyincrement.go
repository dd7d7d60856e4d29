// Package keyincrement implements DTA's Key-Increment primitive:
// addition-based aggregation of counters delivered at RDMA rates.
//
// Unlike Key-Write, which sets a key's value, Key-Increment adds to it.
// The collector memory acts as a Count-Min Sketch [Cormode & Muthu]:
// each report increments N hashed counters with RDMA FETCH&ADD, and a
// query returns the minimum of the N locations (Algorithms 5 and 6).
// Hash collisions can only inflate counters, so the minimum
// overestimates with exactly the Count-Min guarantees: with M slots and
// total increment volume S, the error exceeds (e/M')·S with probability
// at most e^−N, where M' = M/N per conceptual row.
package keyincrement

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"dta/internal/crc"
	"dta/internal/wire"
)

// MaxRedundancy is the largest supported N.
const MaxRedundancy = 8

// CounterSize is the width of one counter: RDMA FETCH&ADD operates on
// 64-bit words.
const CounterSize = 8

// Config describes a Key-Increment store.
type Config struct {
	// Slots is the number of counters. Must be a power of two.
	Slots uint64
}

func (c *Config) validate() error {
	if c.Slots == 0 || c.Slots&(c.Slots-1) != 0 {
		return fmt.Errorf("keyincrement: slots %d not a power of two", c.Slots)
	}
	return nil
}

// BufferSize returns the memory required for the store.
func (c Config) BufferSize() int { return int(c.Slots) * CounterSize }

// Indexer computes the N counter locations for a key, using the same
// distinct-polynomial hash family as Key-Write.
type Indexer struct {
	cfg   Config
	slots *crc.Family
	mask  uint64
}

// NewIndexer builds an Indexer.
func NewIndexer(cfg Config) (*Indexer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Indexer{cfg: cfg, slots: crc.MustFamily(MaxRedundancy), mask: cfg.Slots - 1}, nil
}

// Slot computes the n'th counter location for key.
func (x *Indexer) Slot(n int, key wire.Key) uint64 {
	return uint64(x.slots.Hash16(n, (*[wire.KeySize]byte)(&key))) & x.mask
}

// Plan is the read side's address generation: it validates n, then
// appends key's n counter indexes to dst. Stores of equal geometry answer
// QueryAt and Touch over one plan.
func (x *Indexer) Plan(key wire.Key, n int, dst []uint64) ([]uint64, error) {
	if n < 1 || n > MaxRedundancy {
		return dst, fmt.Errorf("keyincrement: redundancy %d out of range [1,%d]", n, MaxRedundancy)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, x.Slot(i, key))
	}
	return dst, nil
}

// Offset converts a slot index to a byte offset.
func (x *Indexer) Offset(slot uint64) int { return int(slot) * CounterSize }

// Store is the collector-side view of the counter memory.
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

// NewStoreOver builds a store view over an existing buffer.
func NewStoreOver(cfg Config, buf []byte) (*Store, error) {
	x, err := NewIndexer(cfg)
	if err != nil {
		return nil, err
	}
	if len(buf) < cfg.BufferSize() {
		return nil, errors.New("keyincrement: buffer smaller than configured geometry")
	}
	return &Store{x: x, buf: buf[:cfg.BufferSize()]}, nil
}

// Indexer returns the store's indexer.
func (s *Store) Indexer() *Indexer { return s.x }

// Buffer exposes the backing memory.
func (s *Store) Buffer() []byte { return s.buf }

func (s *Store) counter(slot uint64) uint64 {
	off := s.x.Offset(slot)
	return binary.BigEndian.Uint64(s.buf[off : off+CounterSize])
}

func (s *Store) addCounter(slot uint64, delta uint64) {
	off := s.x.Offset(slot)
	v := binary.BigEndian.Uint64(s.buf[off : off+CounterSize])
	binary.BigEndian.PutUint64(s.buf[off:off+CounterSize], v+delta)
}

// Increment adds delta to key's N counters, performing locally what the
// translator performs with N FETCH&ADDs (Algorithm 5).
func (s *Store) Increment(key wire.Key, delta uint64, n int) error {
	if n < 1 || n > MaxRedundancy {
		return fmt.Errorf("keyincrement: redundancy %d out of range [1,%d]", n, MaxRedundancy)
	}
	for i := 0; i < n; i++ {
		s.addCounter(s.x.Slot(i, key), delta)
	}
	return nil
}

// Raise lifts each of key's N counters to at least value, leaving
// larger counters untouched. It is the count-min read-repair primitive:
// a replica that missed increments while down can have its counters
// restored to a peer-derived lower bound without ever lowering a
// counter, so the never-undercount guarantee of every other key is
// preserved.
func (s *Store) Raise(key wire.Key, value uint64, n int) error {
	if n < 1 || n > MaxRedundancy {
		return fmt.Errorf("keyincrement: redundancy %d out of range [1,%d]", n, MaxRedundancy)
	}
	for i := 0; i < n; i++ {
		slot := s.x.Slot(i, key)
		if s.counter(slot) < value {
			off := s.x.Offset(slot)
			binary.BigEndian.PutUint64(s.buf[off:off+CounterSize], value)
		}
	}
	return nil
}

// Query returns the count-min estimate for key: the minimum of its N
// counters (Algorithm 6). The estimate never undercounts.
func (s *Store) Query(key wire.Key, n int) (uint64, error) {
	var buf [MaxRedundancy]uint64
	slots, err := s.x.Plan(key, n, buf[:0])
	if err != nil {
		return 0, err
	}
	return s.QueryAt(slots), nil
}

// Touch loads one byte from each planned counter and does nothing else
// (see keywrite.Store.Touch).
func (s *Store) Touch(slots []uint64) {
	var acc byte
	for _, slot := range slots {
		acc += s.buf[s.x.Offset(slot)]
	}
	// Keeps the loads live without a write: lookups touch concurrently.
	runtime.KeepAlive(acc)
}

// QueryAt is Query over counters planned beforehand (Indexer.Plan, on
// this store's indexer or one of equal geometry): their minimum.
func (s *Store) QueryAt(slots []uint64) uint64 {
	min := s.counter(slots[0])
	for _, slot := range slots[1:] {
		if c := s.counter(slot); c < min {
			min = c
		}
	}
	return min
}

// Reset zeroes all counters. The paper resets the memory periodically
// depending on the application (§4).
func (s *Store) Reset() {
	for i := range s.buf {
		s.buf[i] = 0
	}
}
