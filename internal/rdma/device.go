package rdma

import (
	"encoding/binary"
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

// contains translates a remote (va, length) pair into an offset; a nil
// region (no such rkey) contains nothing.
func (m *MemoryRegion) contains(va uint64, length int) (int, error) {
	if m == nil || va < m.Base {
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
// of one operation and run whole by one core that reads it in place,
// which leaves one Completion (the CQE) in the requester's memory;
// Process takes one RoCEv2 packet off a wire and runs it through the
// same core as a one-replica entry. On a region with Tags the core
// raises the tags each write touches.
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

	// edge holds the entry Process builds for each packet, uncommitted.
	edge SendQueue
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

// Execute rings the doorbell on q: it runs each entry whole (run), its
// header read in place once it passes the checks DecodeWQE makes, with
// every check a packet gets past its ICRC (opcode, QP, PSN, duplicate,
// rkey, bounds, alignment); DeviceStats, dirty tags, immediate events
// and the response count per replica. It clears the CQE *c and writes
// the one completion into it: the last response a replica asked for, or
// the first NAK, after which nothing executes — not even the rest of
// that entry's replicas. An entry that cannot be processed at all
// (header, QP) also stops the list, as err. Execute empties q.
func (d *Device) Execute(q *SendQueue, evs []ImmediateEvent, c *Completion) (_ []ImmediateEvent, err error) {
	*c = Completion{}
	epoch := d.Epoch()
	start := 0
	for _, end := range q.ends {
		w := q.arena[start:end]
		var n int
		if n, err = checkWQE(w); err != nil {
			break
		}
		var stop bool
		if evs, stop, err = d.run(w, n, c, evs, epoch); stop {
			break
		}
		start = end
	}
	q.arena, q.ends = q.arena[:0], q.ends[:0]
	return evs, err
}

// Process is the wire edge: it decodes one incoming RoCEv2 packet,
// checks its ICRC, builds it as a one-replica entry at the tail of the
// device's edge queue (never posted), runs that through the doorbell's
// core and returns the serialized acknowledgement (nil if the packet
// does not elicit one). A packet that is no request keeps its opcode in
// the entry, so it is answered QP, then PSN, then ErrBadOpcode. If the
// packet carried immediate data, ev describes the interrupt the host
// would receive.
func (d *Device) Process(pkt []byte, ackBuf []byte) (ack []byte, ev *ImmediateEvent, err error) {
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		return nil, nil, err
	}
	h := &p.BTH
	var w []byte
	if h.Opcode == OpFetchAdd {
		a := &p.AtomicETH
		w = d.edge.FetchAddWQE(h.DestQP, h.PSN, []uint64{a.VA}, a.RKey, a.AddData)
	} else {
		var imm *uint32
		if p.HasImm {
			imm = &p.Imm
		}
		w = d.edge.WriteWQE(h.DestQP, h.PSN, []uint64{p.RETH.VA}, p.RETH.RKey, p.Payload, h.AckReq, imm)
		w[wqeOp] = byte(h.Opcode)
	}
	var c Completion
	var one [1]ImmediateEvent
	evs, _, err := d.run(w, 1, &c, one[:0], d.Epoch())
	if len(evs) > 0 {
		e := evs[0]
		ev = &e
	}
	return c.ack(ackBuf), ev, err
}

// run is the core every verb runs through: the n replicas of entry w
// (checked by checkWQE, or built by Process) in order, each one's PSN
// and address, and the payload and operand, read from w in place. The
// QP and the region resolve once per entry. It records in c the
// response each replica asks for. stop ends the list: a NAK, or err.
func (d *Device) run(w []byte, n int, c *Completion, evs []ImmediateEvent, epoch uint64) (_ []ImmediateEvent, stop bool, err error) {
	// No lock: the data path is serialised per device by contract (see
	// the Device doc comment); taking the mutex per packet cost ~17% of
	// the whole ingest path.
	qp := d.qpCache
	if qpn := ne.Uint32(w[wqeQPN:]); qp == nil || qp.QPN != qpn {
		var ok bool
		if qp, ok = d.qps[qpn]; !ok {
			return evs, true, ErrUnknownQP
		}
		d.qpCache = qp
	}
	op, psn := Opcode(w[wqeOp]), ne.Uint32(w[wqePSN:])
	m, _ := d.region(ne.Uint32(w[wqeRKey:])) // nil: every replica faults
	vas, payload := w[wqeHdrLen:wqeHdrLen+8*n], w[wqeHdrLen+8*n:]
	ack := w[wqeFlags]&wqeAckReq != 0 || op == OpWriteOnlyImm
	for i := 0; i < n; i, psn = i+1, (psn+1)&psnMask {
		if psn != qp.EPSN {
			if d.outOfSequence(qp, psn, op, c) {
				return evs, true, nil
			}
			continue
		}
		va := ne.Uint64(vas[8*i:])
		switch op {
		case OpWriteOnly, OpWriteOnlyImm:
			off, err := m.contains(va, len(payload))
			if err != nil {
				d.Stats.AccessErrs++
				return evs, c.respond(qp, psn, SynNAKAcc, false, 0), nil
			}
			if len(payload) == 8 { // a Key-Write slot: one store, no memmove call
				ne.PutUint64(m.Buf[off:], ne.Uint64(payload))
			} else {
				copy(m.Buf[off:], payload)
			}
			if m.Tags != nil {
				m.RaiseTags(off, len(payload), epoch)
			}
			d.Stats.Writes++
			d.Stats.WriteLines += uint64(max((len(payload)+CacheLine-1)/CacheLine, 1))
			qp.advance()
			if op == OpWriteOnlyImm {
				evs = append(evs, ImmediateEvent{QPN: qp.QPN, Imm: ne.Uint32(w[wqeImm:])})
			}
			if ack {
				c.respond(qp, psn, SynACK, false, 0)
			}
		case OpFetchAdd:
			off, err := m.contains(va, 8)
			if err != nil || va%8 != 0 {
				d.Stats.AccessErrs++
				return evs, c.respond(qp, psn, SynNAKAcc, false, 0), nil
			}
			orig := binary.BigEndian.Uint64(m.Buf[off:])
			binary.BigEndian.PutUint64(m.Buf[off:], orig+ne.Uint64(w[wqeAdd:]))
			if m.Tags != nil {
				m.RaiseTags(off, 8, epoch)
			}
			d.Stats.FetchAdds++
			qp.lastAtomicPSN, qp.lastAtomicOrig, qp.hasAtomicCache = psn, orig, true
			qp.advance()
			c.respond(qp, psn, SynACK, true, orig)
		default:
			return evs, true, ErrBadOpcode
		}
	}
	return evs, false, nil
}

// outOfSequence answers a verb whose PSN is not the one qp expects —
// the sequence and duplicate rules — and reports whether it stops the
// list.
func (d *Device) outOfSequence(qp *ResponderQP, psn uint32, op Opcode, c *Completion) (stop bool) {
	if psnDelta(psn, qp.EPSN) > 0 {
		// Out-of-order: a preceding packet was lost. NAK with the
		// expected PSN so the requester resynchronises (§5.2 "queue-pair
		// resynchronization").
		d.Stats.SeqErrors++
		return c.respond(qp, qp.EPSN, SynNAKSeq, false, 0)
	}
	// Duplicate of an already-executed verb.
	d.Stats.Duplicates++
	switch {
	case op != OpFetchAdd:
		// Duplicate WRITEs are idempotent: re-ACK without re-executing.
		return c.respond(qp, psn, SynACK, false, 0)
	case qp.hasAtomicCache && qp.lastAtomicPSN == psn:
		return c.respond(qp, psn, SynACK, true, qp.lastAtomicOrig)
	}
	// Uncached duplicate atomics cannot be safely re-executed.
	return c.respond(qp, psn, SynNAKSeq, false, 0)
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

// PreTouch hints each (va, length) target in the region behind rkey
// into the cache and does nothing else. The translator calls it with a
// window's destination addresses before crafting the window's first
// verb: a hint (prefetch) retires at once, so the lines arrive while the
// window is crafted and the doorbell's WRITE and FETCH&ADD stores (and
// tag raises) find them resident. Each target gets one hint for the
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
