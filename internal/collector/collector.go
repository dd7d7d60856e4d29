// Package collector implements the DTA collector host: an RDMA-capable
// server whose memory holds the per-primitive telemetry stores and whose
// CPU only ever runs queries — ingestion happens entirely inside the
// (modelled) NIC via RDMA (§5.3).
//
// A Host registers one memory region per enabled primitive, advertises
// them through the connection manager, executes the RoCEv2 post-lists a
// translator rings in with its Device, and exposes typed query views over
// the same memory: Key-Write lookups, Postcarding path reconstruction,
// Append polling and Key-Increment count-min estimates. WRITEs carrying
// immediate data surface on the Events channel (push notifications, §7).
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

	sq     rdma.SendQueue // verbs posted since the last doorbell
	evs    []rdma.ImmediateEvent
	ackBuf []byte
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
		ackBuf: make([]byte, 0, 64),
	}
	var err error
	if cfg.KeyWrite != nil {
		mr := h.dev.RegisterMemory(cfg.KeyWrite.BufferSize())
		h.kw, err = keywrite.NewStoreOver(*cfg.KeyWrite, mr.Buf)
		if err != nil {
			return nil, err
		}
		h.regions = append(h.regions, rdma.RegionInfo{
			Label: "keywrite", RKey: mr.RKey, VA: mr.Base,
			Length: uint64(len(mr.Buf)),
			Slots:  cfg.KeyWrite.Slots, SlotSize: uint32(cfg.KeyWrite.SlotSize()),
		})
	}
	if cfg.KeyIncrement != nil {
		mr := h.dev.RegisterMemory(cfg.KeyIncrement.BufferSize())
		h.ki, err = keyincrement.NewStoreOver(*cfg.KeyIncrement, mr.Buf)
		if err != nil {
			return nil, err
		}
		h.regions = append(h.regions, rdma.RegionInfo{
			Label: "keyincrement", RKey: mr.RKey, VA: mr.Base,
			Length: uint64(len(mr.Buf)),
			Slots:  cfg.KeyIncrement.Slots, SlotSize: keyincrement.CounterSize,
		})
	}
	if cfg.Postcarding != nil {
		mr := h.dev.RegisterMemory(cfg.Postcarding.BufferSize())
		h.pc, err = postcarding.NewStoreOver(*cfg.Postcarding, mr.Buf)
		if err != nil {
			return nil, err
		}
		h.regions = append(h.regions, rdma.RegionInfo{
			Label: "postcarding", RKey: mr.RKey, VA: mr.Base,
			Length: uint64(len(mr.Buf)),
			Slots:  cfg.Postcarding.Chunks, SlotSize: uint32(cfg.Postcarding.ChunkBytes()),
		})
	}
	if cfg.Append != nil {
		mr := h.dev.RegisterMemory(cfg.Append.BufferSize())
		h.ap, err = appendlist.NewStoreOver(*cfg.Append, mr.Buf)
		if err != nil {
			return nil, err
		}
		h.regions = append(h.regions, rdma.RegionInfo{
			Label: "append", RKey: mr.RKey, VA: mr.Base,
			Length: uint64(len(mr.Buf)),
			Slots:  uint64(cfg.Append.Lists), SlotSize: uint32(cfg.Append.EntrySize),
		})
	}
	return h, nil
}

// Listener returns the CM listener translators connect through.
func (h *Host) Listener() *rdma.Listener {
	return &rdma.Listener{Device: h.dev, Regions: h.regions}
}

// Device exposes the RDMA device (statistics, Fig. 8 accounting).
func (h *Host) Device() *rdma.Device { return h.dev }

// Post copies one RoCEv2 verb onto the host's send queue; nothing
// executes until Doorbell. It is the translator's Emit hook.
func (h *Host) Post(pkt []byte) { h.sq.Post(pkt) }

// Doorbell executes the posted verbs (rdma.Device.Execute), raises their
// immediate events on Events and returns the one completion to send
// back, if any: the translator's Doorbell hook. The NIC runs this, not
// the collector CPU, so it charges no CPU cycles.
func (h *Host) Doorbell() (ack []byte, err error) {
	ack, h.evs, err = h.dev.Execute(&h.sq, h.ackBuf, h.evs[:0])
	for _, ev := range h.evs {
		select {
		case h.Events <- ev:
		default:
			h.DroppedEvents++
		}
	}
	return ack, err
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
