// Package collector implements the DTA collector host: an RDMA-capable
// server whose memory holds the per-primitive telemetry stores and whose
// CPU only ever runs queries — ingestion happens entirely inside the
// (modelled) NIC via RDMA (§5.3).
//
// A Host registers one memory region per enabled primitive, advertises
// them through the connection manager, executes with its Device the
// post-list a translator rings in — the send queue the translator owns
// and builds its work-queue entries in — and exposes
// typed query views over the same memory: Key-Write lookups, Postcarding
// path reconstruction, Append polling and Key-Increment count-min
// estimates. WRITEs carrying immediate data surface on the Events channel
// (push notifications, §7).
package collector

import (
	"errors"
	"fmt"

	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/rdma"
	"dta/internal/wire"
)

// Config enables and sizes the primitive stores. Nil disables.
type Config struct {
	KeyWrite     *keywrite.Config
	KeyIncrement *keyincrement.Config
	Postcarding  *postcarding.Config
	Append       *appendlist.Config
	// EventBuffer sizes the immediate-event channel.
	EventBuffer int
}

// Host is the collector server.
type Host struct {
	dev *rdma.Device

	kw *keywrite.Store
	ki *keyincrement.Store
	pc *postcarding.Store
	ap *appendlist.Store

	regions []rdma.RegionInfo

	// Events delivers RDMA-immediate notifications (push notifications).
	// When full, further events are dropped, like NIC event queues.
	Events chan rdma.ImmediateEvent

	evs []rdma.ImmediateEvent
	// DroppedEvents counts notifications lost to a full Events channel.
	DroppedEvents uint64
}

// New builds a Host with the given stores.
func New(cfg Config) (*Host, error) {
	if cfg.KeyWrite == nil && cfg.KeyIncrement == nil && cfg.Postcarding == nil && cfg.Append == nil {
		return nil, errors.New("collector: no primitive enabled")
	}
	evBuf := cfg.EventBuffer
	if evBuf <= 0 {
		evBuf = 1024
	}
	h := &Host{
		dev:    rdma.NewDevice(),
		Events: make(chan rdma.ImmediateEvent, evBuf),
	}
	// register allocates one primitive's region and advertises it.
	register := func(label string, size int, slots uint64, slotSize int) []byte {
		mr := h.dev.RegisterMemory(size)
		h.regions = append(h.regions, rdma.RegionInfo{Label: label, RKey: mr.RKey, VA: mr.Base,
			Length: uint64(size), Slots: slots, SlotSize: uint32(slotSize)})
		return mr.Buf
	}
	var err error
	if c := cfg.KeyWrite; c != nil {
		if h.kw, err = keywrite.NewStoreOver(*c, register("keywrite", c.BufferSize(), c.Slots, c.SlotSize())); err != nil {
			return nil, err
		}
	}
	if c := cfg.KeyIncrement; c != nil {
		if h.ki, err = keyincrement.NewStoreOver(*c, register("keyincrement", c.BufferSize(), c.Slots, keyincrement.CounterSize)); err != nil {
			return nil, err
		}
	}
	if c := cfg.Postcarding; c != nil {
		if h.pc, err = postcarding.NewStoreOver(*c, register("postcarding", c.BufferSize(), c.Chunks, c.ChunkBytes())); err != nil {
			return nil, err
		}
	}
	if c := cfg.Append; c != nil {
		if h.ap, err = appendlist.NewStoreOver(*c, register("append", c.BufferSize(), uint64(c.Lists), c.EntrySize)); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Listener returns the CM listener translators connect through.
func (h *Host) Listener() *rdma.Listener {
	return &rdma.Listener{Device: h.dev, Regions: h.regions}
}

// Device exposes the RDMA device (statistics, Fig. 8 accounting).
func (h *Host) Device() *rdma.Device { return h.dev }

// Doorbell returns the doorbell of a requester's send queue q, the
// translator's Doorbell hook (translator.SendQueue): run, it executes the
// entries posted to q (rdma.Device.Execute), writes the one completion
// into the requester's CQE *c and raises the verbs' immediate events on
// Events. The NIC runs this, not the collector CPU, so it charges no CPU
// cycles.
func (h *Host) Doorbell(q *rdma.SendQueue) func(c *rdma.Completion) error {
	return func(c *rdma.Completion) (err error) {
		h.evs, err = h.dev.Execute(q, h.evs[:0], c)
		for _, ev := range h.evs {
			select {
			case h.Events <- ev:
			default:
				h.DroppedEvents++
			}
		}
		return err
	}
}

// ErrDisabled reports a query against a primitive that was not enabled.
var ErrDisabled = errors.New("collector: primitive not enabled")

// QueryKeyWrite answers a Key-Write query with redundancy n and
// consensus threshold (Algorithm 2).
func (h *Host) QueryKeyWrite(key wire.Key, n, threshold int) (keywrite.QueryResult, error) {
	if h.kw == nil {
		return keywrite.QueryResult{}, ErrDisabled
	}
	return h.kw.Query(key, n, threshold)
}

// QueryPostcards reconstructs a flow's postcards.
func (h *Host) QueryPostcards(key wire.Key, n int) (postcarding.QueryResult, error) {
	if h.pc == nil {
		return postcarding.QueryResult{}, ErrDisabled
	}
	return h.pc.Query(key, n)
}

// QueryCount returns the count-min estimate for a key.
func (h *Host) QueryCount(key wire.Key, n int) (uint64, error) {
	if h.ki == nil {
		return 0, ErrDisabled
	}
	return h.ki.Query(key, n)
}

// AppendPoller returns a poller over one Append list.
func (h *Host) AppendPoller(list int) (*appendlist.Poller, error) {
	if h.ap == nil {
		return nil, ErrDisabled
	}
	return h.ap.NewPoller(list)
}

// KeyWriteStore exposes the underlying store (benchmarks).
func (h *Host) KeyWriteStore() *keywrite.Store { return h.kw }

// PostcardingStore exposes the underlying store (benchmarks).
func (h *Host) PostcardingStore() *postcarding.Store { return h.pc }

// AppendStore exposes the underlying store (benchmarks).
func (h *Host) AppendStore() *appendlist.Store { return h.ap }

// KeyIncrementStore exposes the underlying store (benchmarks).
func (h *Host) KeyIncrementStore() *keyincrement.Store { return h.ki }

// String summarises the host configuration.
func (h *Host) String() string {
	return fmt.Sprintf("collector{regions=%d}", len(h.regions))
}
