package rdma

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
)

// The per-verb reference: a core that runs one decoded verb at a time
// (execute, execWrite, execFetchAdd), resolving the QP and the region
// per replica, driven as a doorbell (refExecute) that decodes each entry
// into a Packet (DecodeWQE) and points it at each replica (Replica) in
// turn. Process shares the device's entry core, so the tests that hold
// a post-list to per-packet processing compare that core with itself;
// TestEntryCoreMatchesPerVerbReference holds it to this reference
// instead, which shares only the small helpers with it (region lookup,
// bounds check, psnDelta, advance, respond).

// refExecute is Execute over the reference core.
func (d *Device) refExecute(q *SendQueue, evs []ImmediateEvent, c *Completion) (_ []ImmediateEvent, err error) {
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

// twin is one side of the differential test: a device with a tagged
// and an untagged region and one QP, its tag clock at *epoch.
type twin struct {
	d   *Device
	mrs [2]*MemoryRegion
	qp  *ResponderQP
}

func newTwin(startPSN uint32, epoch *uint64) twin {
	d := NewDevice()
	d.Epoch = func() uint64 { return *epoch }
	tw := twin{d: d, mrs: [2]*MemoryRegion{d.RegisterMemory(4096), d.RegisterMemory(512)}, qp: d.CreateQP(startPSN)}
	tw.mrs[0].Tags = make([]atomic.Uint64, 4096/TagBlockBytes)
	return tw
}

// randomEntry builds at q's tail an entry of 1 to 8 replicas — a WRITE
// (payload of 8 bytes mostly, else 0 to 80), a WRITE with immediate or a
// FETCH&ADD — at PSN psn. Each replica's address is mostly an aligned
// slot of mr, and sometimes (about one replica in 24) outside it, or
// unaligned; one entry in 32 names an unknown rkey and one in 48 an
// unknown QP.
func randomEntry(rng *rand.Rand, q *SendQueue, qpn, psn uint32, mr *MemoryRegion, n int) []byte {
	vas := make([]uint64, n)
	for i := range vas {
		vas[i] = mr.Base + 8*rng.Uint64N(uint64(len(mr.Buf))/8)
		switch rng.IntN(24) {
		case 0:
			vas[i] = mr.Base + uint64(len(mr.Buf)) - uint64(rng.IntN(8))
		case 1:
			vas[i] = mr.Base - 8
		case 2:
			vas[i] += uint64(1 + rng.IntN(7))
		}
	}
	rkey := mr.RKey
	if rng.IntN(32) == 0 {
		rkey += 7
	}
	if rng.IntN(48) == 0 {
		qpn += 5
	}
	switch rng.IntN(3) {
	case 0:
		return q.FetchAddWQE(qpn, psn, vas, rkey, rng.Uint64N(1000))
	case 1:
		imm := rng.Uint32()
		return q.WriteWQE(qpn, psn, vas, rkey, randomPayload(rng), rng.IntN(2) == 0, &imm)
	}
	return q.WriteWQE(qpn, psn, vas, rkey, randomPayload(rng), rng.IntN(2) == 0, nil)
}

func randomPayload(rng *rand.Rand) []byte {
	n := 8
	if rng.IntN(3) == 0 {
		n = rng.IntN(81)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// TestEntryCoreMatchesPerVerbReference: seeded random post-lists of 1
// to 8 entries of 1 to 8 replicas each — WRITE, WRITE with immediate and
// FETCH&ADD; PSN gaps and duplicates; faults at random replicas,
// unaligned atomics, unknown rkeys and QPs; one region tagged — run
// through Execute on one device and through the per-verb reference
// (refExecute) on a twin, list after list, the requester resynchronising
// on each completion. The two must agree on the completion, the events,
// the error, memory, DeviceStats, QP state and every dirty tag.
func TestEntryCoreMatchesPerVerbReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 5959))
	var total DeviceStats
	var errs int
	for round := range 200 {
		start := rng.Uint32() & psnMask
		if round%4 == 0 {
			start = psnMask - uint32(rng.IntN(8)) // the PSN wraps inside the round
		}
		var epoch uint64
		got, want := newTwin(start, &epoch), newTwin(start, &epoch)
		req := &Requester{DestQP: got.qp.QPN, NPSN: start}
		var q, refQ SendQueue
		for list := range 24 {
			epoch = uint64(list)
			for range 1 + rng.IntN(8) {
				n := 1 + rng.IntN(8)
				switch rng.IntN(10) {
				case 0: // a gap: verbs before this one were lost
					req.NextPSNs(1 + rng.IntN(3))
				case 1: // a replay from before the responder's PSN
					req.NPSN = (req.NPSN - 1 - uint32(rng.IntN(n+2))) & psnMask
				case 2: // the last verb again: a cached atomic, if it was one
					req.NPSN, n = (req.NPSN-1)&psnMask, 1
				}
				w := randomEntry(rng, &q, got.qp.QPN, req.NextPSNs(n), got.mrs[rng.IntN(2)], n)
				q.Post(w)
				tail := refQ.Tail(len(w))
				copy(tail, w)
				refQ.Post(tail)
			}
			var c, refC Completion
			evs, err := got.d.Execute(&q, nil, &c)
			refEvs, refErr := want.d.refExecute(&refQ, nil, &refC)
			if c != refC || !slices.Equal(evs, refEvs) || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("round %d list %d: core answered %+v %v %v, reference %+v %v %v", round, list, c, evs, err, refC, refEvs, refErr)
			}
			if got.d.Stats != want.d.Stats || *got.qp != *want.qp {
				t.Fatalf("round %d list %d: core left stats %+v QP %+v, reference %+v %+v", round, list, got.d.Stats, *got.qp, want.d.Stats, *want.qp)
			}
			for i, mr := range got.mrs {
				if !bytes.Equal(mr.Buf, want.mrs[i].Buf) {
					t.Fatalf("round %d list %d: region %d memory differs", round, list, i)
				}
				for b := range mr.Tags {
					if g, w := mr.Tags[b].Load(), want.mrs[i].Tags[b].Load(); g != w {
						t.Fatalf("round %d list %d: region %d block %d tagged %d, reference %d", round, list, i, b, g, w)
					}
				}
			}
			req.HandleAck(&c)
			if err != nil {
				errs++
			}
		}
		total.Writes += got.d.Stats.Writes
		total.FetchAdds += got.d.Stats.FetchAdds
		total.Duplicates += got.d.Stats.Duplicates
		total.SeqErrors += got.d.Stats.SeqErrors
		total.AccessErrs += got.d.Stats.AccessErrs
	}
	// The lists must reach every rule, not agree by never leaving the
	// in-sequence path.
	if total.Writes == 0 || total.FetchAdds == 0 || total.Duplicates == 0 || total.SeqErrors == 0 || total.AccessErrs == 0 || errs == 0 {
		t.Fatalf("the lists missed a rule: %+v, %d lists stopped by an error", total, errs)
	}
}
