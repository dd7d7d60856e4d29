package ha

import (
	"sync/atomic"

	"dta/internal/rdma"
)

// Tracker is one collector's dirty map. The tags live on the device's
// registered regions (rdma.MemoryRegion.Tags): the execute loop raises
// them, to the epoch the doorbell read, for every verb it runs. Read
// repair and resync write store buffers directly, so they stamp through
// MarkRange; a resync peer's image copies Tags beside its stores, and
// incremental resync replays only blocks written since the target went
// stale.
//
// Epoch ordering: a doorbell reads the epoch on the worker, after its
// chunk was dequeued, so after every fan-out that staged into the chunk
// chose its skip set. A fan-out that skips a collector saw the epoch bump
// SetDown made before the down flag, so its writes carry a tag inside the
// skipped collector's replay window.
type Tracker struct {
	epochs  *Health
	regions map[string]*rdma.MemoryRegion
}

// NewTracker turns on dirty tags for every region l advertises, with h's
// epoch as the device's tag clock. Call it before the collector sees
// traffic.
func NewTracker(h *Health, l *rdma.Listener) *Tracker {
	t := &Tracker{epochs: h, regions: make(map[string]*rdma.MemoryRegion)}
	for _, r := range l.Regions {
		m, _ := l.Device.Region(r.RKey)
		m.Tags = make([]atomic.Uint64, (len(m.Buf)+rdma.TagBlockBytes-1)/rdma.TagBlockBytes)
		t.regions[r.Label] = m
	}
	l.Device.Epoch = h.Epoch
	return t
}

// MarkRange stamps [off, off+length) of the labelled store with the
// current epoch.
func (t *Tracker) MarkRange(label string, off, length int) {
	if m := t.regions[label]; m != nil {
		m.RaiseTags(off, length, t.epochs.Epoch())
	}
}

// Tags returns a copy of the labelled store's per-block epoch tags, or
// nil if the store is untracked. A resync peer's image records these
// next to the buffers.
func (t *Tracker) Tags(label string) []uint64 {
	m := t.regions[label]
	if m == nil {
		return nil
	}
	out := make([]uint64, len(m.Tags))
	for b := range m.Tags {
		out[b] = m.Tags[b].Load()
	}
	return out
}
