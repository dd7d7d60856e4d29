package rdma

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// CacheLine is the DMA write granularity used for memory-instruction
// accounting: one memory instruction per cache line touched, which is how
// the paper arrives at Fig. 8's 2.00 / 0.40 / 0.06 instructions per
// report.
const CacheLine = 64

// TagBlockBytes is the dirty-tag granularity (MemoryRegion.Tags): 8 B of
// tag per 1 KiB, and a rejoin window dirties few blocks.
const TagBlockBytes = 1024

// MemoryRegion is a registered, remotely accessible buffer. DTA registers
// one region per primitive store. The paper allocates them on 1 GB huge
// pages; here they are heap slices of exactly the registered size whose
// 2 MiB-aligned interior is advised onto transparent huge pages on Linux.
type MemoryRegion struct {
	Base uint64 // starting virtual address as seen by remote peers
	RKey uint32
	Buf  []byte
	// Tags, nil unless dirty tracking is on (HA members), holds one
	// last-write epoch per TagBlockBytes block of Buf.
	Tags []atomic.Uint64
}

// RaiseTags lifts the tag of every block [off, off+length) touches to at
// least epoch: tags are last-write clocks and only move forward.
func (m *MemoryRegion) RaiseTags(off, length int, epoch uint64) {
	if length <= 0 {
		return
	}
	last := min((off+length-1)/TagBlockBytes, len(m.Tags)-1)
	for b := off / TagBlockBytes; b <= last; b++ {
		for tag := &m.Tags[b]; ; {
			cur := tag.Load()
			if cur >= epoch || tag.CompareAndSwap(cur, epoch) {
				break
			}
		}
	}
}

// contains translates a remote (va, length) pair into an offset.
func (m *MemoryRegion) contains(va uint64, length int) (int, error) {
	if va < m.Base {
		return 0, ErrAccessFault
	}
	off := va - m.Base
	if off+uint64(length) > uint64(len(m.Buf)) {
		return 0, ErrAccessFault
	}
	return int(off), nil
}

// ResponderQP is the target-side state of a reliable connection: the
// expected PSN and the message sequence number used in acknowledgements.
type ResponderQP struct {
	QPN  uint32
	EPSN uint32 // next expected PSN (24-bit space)
	MSN  uint32
	// lastAtomicOrig caches the last atomic result so a duplicate
	// FETCH&ADD is answered from cache instead of re-executed.
	lastAtomicPSN  uint32
	lastAtomicOrig uint64
	hasAtomicCache bool
}

const psnMask = 1<<24 - 1

// psnDelta computes the signed distance a-b in 24-bit PSN space.
func psnDelta(a, b uint32) int32 {
	d := (a - b) & psnMask
	if d >= 1<<23 {
		return int32(d) - 1<<24
	}
	return int32(d)
}

// Device is an RDMA NIC target: it owns registered memory regions and
// responder queue pairs and executes incoming verbs against memory. It is
// the collector-side endpoint of DTA; its CPU never sees the packets.
//
// Verbs arrive as a post-list of work-queue entries (the requester's
// SendQueue, run by Execute, the doorbell), each carrying every replica
// of one operation, which leaves one Completion (the CQE) in the
// requester's memory; Process takes one RoCEv2 packet off a wire
// through the same execute core. On a region with Tags the core raises
// the tags each write touches.
//
// Concurrency contract: the data path (Execute, Process, PreTouch) is
// single-threaded, like the modelled NIC pipeline — callers serialise
// packet processing per device (the ingest engine does this by
// dedicating one worker goroutine per collector). Setup calls
// (RegisterMemory, CreateQP) take the device mutex and, like setting
// Tags and Epoch, must complete before traffic starts; statistics
// readers must quiesce the data path first (Drain/Close), as the dta
// package documents.
type Device struct {
	mu sync.Mutex
	// regions[i] is the region of rkey firstRKey+i: RegisterMemory hands
	// rkeys out densely, so a verb resolves its region by one index,
	// whichever region the verb before it hit.
	regions []*MemoryRegion
	qps     map[uint32]*ResponderQP
	nextVA  uint64
	nextQPN uint32

	// qpCache is a one-entry context cache, mirroring the QP context
	// cache real NICs keep on-die: DTA traffic arrives on one translator
	// connection, so the map lookup almost always short-cuts.
	qpCache *ResponderQP

	// Stats counts processed operations by type.
	Stats DeviceStats

	// hinted counts the targets PreTouch has hinted. It is not work the
	// verbs did, so DeviceStats does not carry it.
	hinted uint64

	// Epoch is the dirty-tag clock, read once per doorbell.
	Epoch func() uint64
}

// DeviceStats counts the operations a Device has executed. WriteLines
// counts the cache lines the executed WRITEs stored (at least one each):
// one DMA memory instruction per line. A FETCH&ADD reads and writes, two
// instructions, so FetchAdds carries its share: Fig. 8's metric is
// (WriteLines + 2·FetchAdds) per report.
type DeviceStats struct {
	Writes     uint64
	WriteLines uint64
	FetchAdds  uint64
	Duplicates uint64
	SeqErrors  uint64
	AccessErrs uint64
}

// firstRKey is the rkey of a device's first registered region.
const firstRKey = 0x1000

// NewDevice returns an empty Device.
func NewDevice() *Device {
	return &Device{
		qps:     make(map[uint32]*ResponderQP),
		nextVA:  0x10000000, // arbitrary non-zero base
		nextQPN: 0x11,
		Epoch:   func() uint64 { return 0 },
	}
}

// RegisterMemory allocates and registers a zeroed region of the given
// size (see allocRegion for its pages).
func (d *Device) RegisterMemory(size int) *MemoryRegion {
	buf := allocRegion(size)
	d.mu.Lock()
	defer d.mu.Unlock()
	m := &MemoryRegion{Base: d.nextVA, RKey: firstRKey + uint32(len(d.regions)), Buf: buf}
	d.regions = append(d.regions, m)
	// Leave an unmapped guard gap between regions so off-by-one
	// addressing faults instead of corrupting a neighbour.
	d.nextVA += uint64(size) + 1<<20
	return m
}

// CreateQP allocates a responder queue pair starting at PSN startPSN.
func (d *Device) CreateQP(startPSN uint32) *ResponderQP {
	d.mu.Lock()
	defer d.mu.Unlock()
	qp := &ResponderQP{QPN: d.nextQPN, EPSN: startPSN & psnMask}
	d.qps[qp.QPN] = qp
	d.nextQPN++
	return qp
}

// Region looks up a registered region by rkey.
func (d *Device) Region(rkey uint32) (*MemoryRegion, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.region(rkey)
}

// ImmediateEvent is the completion notification raised by a WRITE with
// immediate data; DTA uses it for push notifications (§7).
type ImmediateEvent struct {
	QPN uint32
	Imm uint32
}

// Completion is the completion-queue entry (CQE) a doorbell leaves in
// the requester's memory: the last response a verb asked for, or the
// first NAK. The zero Completion (Set false) is a list that asked for
// nothing. Execute writes it in place; it is never returned by value.
type Completion struct {
	Set, Atomic   bool
	Syndrome      uint8
	QPN, PSN, MSN uint32
	Orig          uint64 // a FETCH&ADD's pre-add value
}

// ack serialises c as the RoCEv2 acknowledgement; nil when not Set.
func (c *Completion) ack(buf []byte) []byte {
	if !c.Set {
		return nil
	}
	return BuildAck(buf, c.QPN, c.PSN, c.Syndrome, c.MSN, c.Atomic, c.Orig)
}

// respond records a verb's response; a NAK stops the list.
func (c *Completion) respond(qp *ResponderQP, psn uint32, syndrome uint8, atomic bool, orig uint64) (stop bool) {
	// Field by field: a composite literal is built on the stack and
	// copied with wider loads than its stores, which wait for every older
	// store, the verbs' cache misses included, to reach L1.
	c.Set, c.Atomic, c.Syndrome = true, atomic, syndrome
	c.QPN, c.PSN, c.MSN, c.Orig = qp.QPN, psn, qp.MSN, orig
	return syndrome != SynACK
}

// Execute rings the doorbell on q: it decodes each entry once
// (DecodeWQE) and executes its replicas (Replica) in order, each as the
// verb it stands for, with every check a packet gets past its ICRC
// (opcode, QP, PSN, duplicate, rkey, bounds, alignment); DeviceStats,
// dirty tags, immediate events and the response count per replica. It
// clears the CQE *c and writes the one completion into it: the last
// response a replica asked for, or the first NAK, after which nothing
// executes — not even the rest of that entry's replicas. An entry that
// cannot be processed at all (decode, QP, opcode) also stops the list,
// as err. Execute empties q.
func (d *Device) Execute(q *SendQueue, evs []ImmediateEvent, c *Completion) (_ []ImmediateEvent, err error) {
	*c = Completion{}
	epoch := d.Epoch()
	var p Packet
	start := 0
list:
	for _, end := range q.ends {
		w := q.arena[start:end]
		var n int
		if n, err = DecodeWQE(w, &p); err != nil {
			break
		}
		for i := range n {
			Replica(w, i, &p)
			var stop bool
			if evs, stop, err = d.execute(&p, c, evs, epoch); stop {
				break list
			}
		}
		start = end
	}
	q.arena, q.ends = q.arena[:0], q.ends[:0]
	return evs, err
}

// Process is the wire edge: it decodes one incoming RoCEv2 packet,
// checks its ICRC, executes it through the same core as a WQE and
// returns the serialized acknowledgement (nil if the packet does not
// elicit one). If the packet carried immediate data, ev describes the
// interrupt the host would receive.
func (d *Device) Process(pkt []byte, ackBuf []byte) (ack []byte, ev *ImmediateEvent, err error) {
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		return nil, nil, err
	}
	var c Completion
	var one [1]ImmediateEvent
	evs, _, err := d.execute(&p, &c, one[:0], d.Epoch())
	if len(evs) > 0 {
		e := evs[0]
		ev = &e
	}
	return c.ack(ackBuf), ev, err
}

// execute is the core every verb runs through, decoded from a WQE or a
// packet: it records in c the response the verb asks for. stop ends the
// list: a NAK, or err.
func (d *Device) execute(p *Packet, c *Completion, evs []ImmediateEvent, epoch uint64) (_ []ImmediateEvent, stop bool, err error) {
	// No lock: the data path is serialised per device by contract (see
	// the Device doc comment); taking the mutex per packet cost ~17% of
	// the whole ingest path.
	qp := d.qpCache
	if qp == nil || qp.QPN != p.BTH.DestQP {
		var ok bool
		qp, ok = d.qps[p.BTH.DestQP]
		if !ok {
			return evs, true, ErrUnknownQP
		}
		d.qpCache = qp
	}

	delta := psnDelta(p.BTH.PSN, qp.EPSN)
	switch {
	case delta > 0:
		// Out-of-order: a preceding packet was lost. NAK with the
		// expected PSN so the requester resynchronises (§5.2 "queue-pair
		// resynchronization").
		d.Stats.SeqErrors++
		return evs, c.respond(qp, qp.EPSN, SynNAKSeq, false, 0), nil
	case delta < 0:
		// Duplicate of an already-executed packet.
		d.Stats.Duplicates++
		if p.BTH.Opcode == OpFetchAdd {
			if qp.hasAtomicCache && qp.lastAtomicPSN == p.BTH.PSN {
				return evs, c.respond(qp, p.BTH.PSN, SynACK, true, qp.lastAtomicOrig), nil
			}
			// Uncached duplicate atomics cannot be safely re-executed.
			return evs, c.respond(qp, p.BTH.PSN, SynNAKSeq, false, 0), nil
		}
		// Duplicate WRITEs are idempotent: re-ACK without re-executing.
		return evs, c.respond(qp, p.BTH.PSN, SynACK, false, 0), nil
	}

	// In-sequence: execute.
	switch p.BTH.Opcode {
	case OpWriteOnly, OpWriteOnlyImm:
		if err := d.execWrite(p, epoch); err != nil {
			d.Stats.AccessErrs++
			return evs, c.respond(qp, p.BTH.PSN, SynNAKAcc, false, 0), nil
		}
		d.Stats.Writes++
		d.Stats.WriteLines += uint64(max((len(p.Payload)+CacheLine-1)/CacheLine, 1))
		qp.advance()
		if p.HasImm {
			evs = append(evs, ImmediateEvent{QPN: qp.QPN, Imm: p.Imm})
		}
		if p.BTH.AckReq || p.HasImm {
			c.respond(qp, p.BTH.PSN, SynACK, false, 0)
		}
	case OpFetchAdd:
		orig, err := d.execFetchAdd(p, epoch)
		if err != nil {
			d.Stats.AccessErrs++
			return evs, c.respond(qp, p.BTH.PSN, SynNAKAcc, false, 0), nil
		}
		d.Stats.FetchAdds++
		qp.lastAtomicPSN = p.BTH.PSN
		qp.lastAtomicOrig = orig
		qp.hasAtomicCache = true
		qp.advance()
		c.respond(qp, p.BTH.PSN, SynACK, true, orig)
	default:
		return evs, true, ErrBadOpcode
	}
	return evs, false, nil
}

func (qp *ResponderQP) advance() {
	qp.EPSN = (qp.EPSN + 1) & psnMask
	qp.MSN = (qp.MSN + 1) & psnMask
}

// region resolves an rkey to its region (ok false: no such region).
func (d *Device) region(rkey uint32) (*MemoryRegion, bool) {
	if i := rkey - firstRKey; i < uint32(len(d.regions)) {
		return d.regions[i], true
	}
	return nil, false
}

func (d *Device) execWrite(p *Packet, epoch uint64) error {
	m, ok := d.region(p.RETH.RKey)
	if !ok {
		return ErrAccessFault
	}
	off, err := m.contains(p.RETH.VA, len(p.Payload))
	if err != nil {
		return err
	}
	copy(m.Buf[off:], p.Payload)
	if m.Tags != nil {
		m.RaiseTags(off, len(p.Payload), epoch)
	}
	return nil
}

func (d *Device) execFetchAdd(p *Packet, epoch uint64) (uint64, error) {
	m, ok := d.region(p.AtomicETH.RKey)
	if !ok {
		return 0, ErrAccessFault
	}
	if p.AtomicETH.VA%8 != 0 {
		return 0, fmt.Errorf("rdma: unaligned atomic VA %#x: %w", p.AtomicETH.VA, ErrAccessFault)
	}
	off, err := m.contains(p.AtomicETH.VA, 8)
	if err != nil {
		return 0, err
	}
	orig := binary.BigEndian.Uint64(m.Buf[off : off+8])
	binary.BigEndian.PutUint64(m.Buf[off:off+8], orig+p.AtomicETH.AddData)
	if m.Tags != nil {
		m.RaiseTags(off, 8, epoch)
	}
	return orig, nil
}

// PreTouch hints each (va, length) target in the region behind rkey
// into the cache and does nothing else. The translator calls it with a
// window's destination addresses before crafting the window's first
// verb: a hint (prefetch) retires at once, so the lines arrive while the
// window is crafted and the doorbell's execWrite/execFetchAdd stores
// (and tag raises) find them resident. Each target gets one hint for the
// line at its first byte and, on a region with Tags, one for its tag
// word. Addresses get the same bounds check the executing verbs apply;
// one that fails it is skipped — the verb will fault on it. PreTouch
// neither loads nor writes region memory, and runs on the data path's
// goroutine like Process.
func (d *Device) PreTouch(rkey uint32, vas []uint64, length int) {
	m, ok := d.region(rkey)
	if !ok {
		return
	}
	length = max(length, 1) // the byte hinted must itself be in bounds
	n := 0
	for _, va := range vas {
		if off, err := m.contains(va, length); err == nil {
			prefetch(unsafe.Pointer(&m.Buf[off]))
			if m.Tags != nil {
				prefetch(unsafe.Pointer(&m.Tags[off/TagBlockBytes]))
			}
			n++
		}
	}
	d.hinted += uint64(n)
}

// Requester is the initiator-side PSN tracker the translator keeps per
// connection (the "PSN Tracker" stage of Fig. 6).
type Requester struct {
	DestQP uint32
	NPSN   uint32 // next PSN to stamp
	// Resyncs counts NAK-triggered resynchronisations.
	Resyncs uint64
	// Acked is the PSN after the highest cumulative acknowledgement.
	Acked uint32
	// OnResync, when set, fires on every NAK-sequence resynchronisation
	// — the trace pipeline uses it to tail-retain the report that was
	// in flight when the connection rolled back.
	OnResync func()
}

// NextPSN stamps and consumes the next PSN.
func (r *Requester) NextPSN() uint32 { return r.NextPSNs(1) }

// NextPSNs consumes n consecutive PSNs and returns the first: a
// multicast entry's replicas take PSN, PSN+1, … (mod 2^24).
func (r *Requester) NextPSNs(n int) uint32 {
	psn := r.NPSN
	r.NPSN = (r.NPSN + uint32(n)) & psnMask
	return psn
}

// HandleAck processes the CQE a doorbell wrote (Device.Execute), read
// where it lies. On a NAK the requester rolls its next PSN back to the
// NAK's, where the post-list stopped, resynchronising the connection. A
// completion that is not Set changes nothing.
func (r *Requester) HandleAck(c *Completion) {
	if !c.Set {
		return
	}
	switch c.Syndrome {
	case SynACK:
		r.Acked = (c.PSN + 1) & psnMask
	case SynNAKSeq, SynNAKAcc:
		r.NPSN = c.PSN
		r.Resyncs++
		if r.OnResync != nil {
			r.OnResync()
		}
	}
}
