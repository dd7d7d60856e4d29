// Package appendlist implements DTA's Append primitive: per-category
// telemetry event lists that reporters append to and the collector CPU
// polls, with all inserts arriving as RDMA WRITEs batched by the
// translator.
//
// Lists are ring buffers in collector memory. The translator keeps the
// per-list head pointer (Algorithm 3) and stashes B−1 incoming entries in
// SRAM; every B'th entry flushes the batch as a single chunk-sized WRITE,
// which is how Append reaches a billion reports per second (Fig. 15) and
// 0.06 memory instructions per report (Fig. 8). The collector reads with
// a tail pointer and a wrap-around (Algorithm 4, Fig. 16).
package appendlist

import (
	"errors"
	"fmt"
)

// MaxLists bounds the number of simultaneous lists. The paper's prototype
// tracks up to 131K lists (§5.2).
const MaxLists = 131072

// MaxBatch bounds the translator batch size (the prototype uses 16).
const MaxBatch = 64

// Config describes the Append store geometry.
type Config struct {
	// Lists is the number of independent event lists.
	Lists int
	// EntriesPerList is the ring capacity of each list. Must be a
	// multiple of the batch size so batched writes never wrap mid-batch
	// (the paper sizes lists in whole batches for the same reason).
	EntriesPerList int
	// EntrySize is the fixed entry width in bytes (4 for queue-depth
	// events, 18 for NetSeer loss events, ...).
	EntrySize int
}

func (c *Config) validate() error {
	if c.Lists < 1 || c.Lists > MaxLists {
		return fmt.Errorf("appendlist: lists %d out of range [1,%d]", c.Lists, MaxLists)
	}
	if c.EntriesPerList < 1 {
		return fmt.Errorf("appendlist: %d entries per list", c.EntriesPerList)
	}
	if c.EntrySize < 1 {
		return fmt.Errorf("appendlist: entry size %d", c.EntrySize)
	}
	return nil
}

// ListBytes is the per-list buffer size.
func (c Config) ListBytes() int { return c.EntriesPerList * c.EntrySize }

// BufferSize returns the total memory required.
func (c Config) BufferSize() int { return c.Lists * c.ListBytes() }

// Store is the collector-side view of the Append memory.
type Store struct {
	cfg Config
	buf []byte
}

// NewStore allocates a store with its own backing buffer.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Store{cfg: cfg, buf: make([]byte, cfg.BufferSize())}, nil
}

// NewStoreOver builds a store view over an existing buffer.
func NewStoreOver(cfg Config, buf []byte) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(buf) < cfg.BufferSize() {
		return nil, errors.New("appendlist: buffer smaller than configured geometry")
	}
	return &Store{cfg: cfg, buf: buf[:cfg.BufferSize()]}, nil
}

// Config returns the store geometry.
func (s *Store) Config() Config { return s.cfg }

// Buffer exposes the backing memory (for registering with an RDMA device).
func (s *Store) Buffer() []byte { return s.buf }

// EntryOffset returns the byte offset of entry idx of list l.
func (s *Store) EntryOffset(l, idx int) int {
	return l*s.cfg.ListBytes() + idx*s.cfg.EntrySize
}

// writeAt applies a raw batch image at an entry offset, as the DMA engine
// would.
func (s *Store) writeAt(l, idx int, data []byte) {
	copy(s.buf[s.EntryOffset(l, idx):], data)
}

// Entry returns a view of entry idx of list l.
func (s *Store) Entry(l, idx int) []byte {
	off := s.EntryOffset(l, idx)
	return s.buf[off : off+s.cfg.EntrySize]
}

// Batcher is the translator-side state: per-list head pointers and the
// SRAM stash of pending entries (Algorithm 3). One Batcher serves all
// lists, as one translator pipeline does.
type Batcher struct {
	cfg   Config
	batch int
	heads []int // next write index per list, in entries
	// written counts entries flushed to the collector per list,
	// cumulatively (never wrapping): heads[l] == written[l] %
	// EntriesPerList. Replica resync compares cumulative counts to
	// decide how much of a peer's ring a rejoining collector missed.
	written []uint64
	stash   [][]byte
	fill    []int
	flush   Flush // what Append and FlushPartial return
	// Stats tracks batching effectiveness.
	Stats BatcherStats
}

// BatcherStats counts batcher activity.
type BatcherStats struct {
	Entries uint64
	Flushes uint64
}

// Flush is a batch ready to be written to the collector: Data spans
// Entries consecutive entries starting at entry Index of list List.
//
// A Flush the batcher returns is the batcher's own (no allocation per
// batch) and Data aliases its stash for the list: both are valid only
// until the next Append or FlushPartial — consume it (serialize the RDMA
// WRITE or Apply it to a store) before appending again, as the
// translator pipeline does.
type Flush struct {
	List    int
	Index   int
	Entries int
	Data    []byte
}

// NewBatcher creates a Batcher with the given batch size (1 = no
// batching).
func NewBatcher(cfg Config, batch int) (*Batcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if batch < 1 || batch > MaxBatch {
		return nil, fmt.Errorf("appendlist: batch %d out of range [1,%d]", batch, MaxBatch)
	}
	if cfg.EntriesPerList%batch != 0 {
		return nil, fmt.Errorf("appendlist: ring of %d entries not a multiple of batch %d", cfg.EntriesPerList, batch)
	}
	b := &Batcher{
		cfg:     cfg,
		batch:   batch,
		heads:   make([]int, cfg.Lists),
		written: make([]uint64, cfg.Lists),
		stash:   make([][]byte, cfg.Lists),
		fill:    make([]int, cfg.Lists),
	}
	return b, nil
}

// Written returns the cumulative (non-wrapping) number of entries
// flushed to the collector for list l. Stashed-but-unflushed entries are
// not counted: they are not in collector memory yet.
func (b *Batcher) Written(l int) uint64 { return b.written[l] }

// WrittenCounts appends a copy of every list's cumulative flushed-entry
// count to out (pass nil to allocate). Snapshot capture records these
// next to the ring buffers so resync can replay exactly the missed
// suffix.
func (b *Batcher) WrittenCounts(out []uint64) []uint64 {
	return append(out, b.written...)
}

// SyncList force-sets list l's cumulative count (and therefore its head
// pointer) after a resync copied a peer's ring suffix into the local
// collector. It refuses to run over stashed entries: callers must flush
// before resyncing, or the stash would be appended at a head it was not
// staged for.
func (b *Batcher) SyncList(l int, written uint64) error {
	if l < 0 || l >= b.cfg.Lists {
		return fmt.Errorf("appendlist: list %d out of range [0,%d)", l, b.cfg.Lists)
	}
	if b.fill[l] != 0 {
		return fmt.Errorf("appendlist: list %d has %d unflushed entries", l, b.fill[l])
	}
	b.written[l] = written
	b.heads[l] = int(written % uint64(b.cfg.EntriesPerList))
	return nil
}

// Append adds one entry to list l. When the entry completes a batch, the
// returned Flush describes the single RDMA WRITE to issue; otherwise the
// entry is stashed and the returned flush is nil. Entries shorter than
// EntrySize are zero-padded; longer ones are truncated.
func (b *Batcher) Append(l int, entry []byte) (*Flush, error) {
	if l < 0 || l >= b.cfg.Lists {
		return nil, fmt.Errorf("appendlist: list %d out of range [0,%d)", l, b.cfg.Lists)
	}
	b.Stats.Entries++
	if b.stash[l] == nil {
		b.stash[l] = make([]byte, b.batch*b.cfg.EntrySize)
	}
	off := b.fill[l] * b.cfg.EntrySize
	dst := b.stash[l][off : off+b.cfg.EntrySize]
	n := copy(dst, entry)
	for i := n; i < b.cfg.EntrySize; i++ {
		dst[i] = 0
	}
	b.fill[l]++
	if b.fill[l] < b.batch {
		return nil, nil
	}
	f := &b.flush
	*f = Flush{
		List:    l,
		Index:   b.heads[l],
		Entries: b.batch,
		Data:    b.stash[l],
	}
	b.heads[l] = (b.heads[l] + b.batch) % b.cfg.EntriesPerList
	b.written[l] += uint64(b.batch)
	b.fill[l] = 0
	b.Stats.Flushes++
	return f, nil
}

// FlushPartial forces out a partial batch for list l (e.g. at epoch end).
// It returns nil when nothing is pending. The flush covers only the
// pending entries.
func (b *Batcher) FlushPartial(l int) *Flush {
	if l < 0 || l >= b.cfg.Lists || b.fill[l] == 0 {
		return nil
	}
	n := b.fill[l]
	f := &b.flush
	*f = Flush{
		List:    l,
		Index:   b.heads[l],
		Entries: n,
		Data:    b.stash[l][:n*b.cfg.EntrySize],
	}
	b.heads[l] = (b.heads[l] + n) % b.cfg.EntriesPerList
	b.written[l] += uint64(n)
	b.fill[l] = 0
	b.Stats.Flushes++
	return f
}

// Apply writes a flush directly into a store, bypassing the RDMA path
// (simulation and tests). The store layout guarantees a batch never
// wraps, because rings are whole multiples of the batch size — except
// after partial flushes, which may force a wrap split.
func (s *Store) Apply(f *Flush) {
	end := f.Index + f.Entries
	if end <= s.cfg.EntriesPerList {
		s.writeAt(f.List, f.Index, f.Data)
		return
	}
	firstPart := (s.cfg.EntriesPerList - f.Index) * s.cfg.EntrySize
	s.writeAt(f.List, f.Index, f.Data[:firstPart])
	s.writeAt(f.List, 0, f.Data[firstPart:])
}

// Poller is the collector-side reader of one list: a tail pointer chased
// around the ring (Algorithm 4). The paper allocates one list per polling
// core to avoid contention at the tail pointer; Poller is accordingly not
// safe for concurrent use.
type Poller struct {
	s    *Store
	list int
	tail int
}

// NewPoller creates a poller for list l.
func (s *Store) NewPoller(l int) (*Poller, error) {
	if l < 0 || l >= s.cfg.Lists {
		return nil, fmt.Errorf("appendlist: list %d out of range [0,%d)", l, s.cfg.Lists)
	}
	return &Poller{s: s, list: l}, nil
}

// Tail returns the poller's current position, in entries.
func (p *Poller) Tail() int { return p.tail }

// Poll returns a view of the entry at the tail and advances it, wrapping
// at the ring end. Like the paper's collector, Poll performs no validity
// check — pacing against the producer is the caller's concern (the
// evaluation shows 8 cores drain the maximum collection rate, §6.7.1).
func (p *Poller) Poll() []byte {
	e := p.s.Entry(p.list, p.tail)
	p.tail++
	if p.tail == p.s.cfg.EntriesPerList {
		p.tail = 0
	}
	return e
}
