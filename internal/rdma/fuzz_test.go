package rdma

import (
	"bytes"
	"slices"
	"testing"
)

// Fuzz targets for the RoCEv2 and work-queue decoders and the responder
// state machine.

func FuzzDecodePacket(f *testing.F) {
	imm := uint32(9)
	f.Add(BuildWrite(nil, 1, 2, 0x10000000, 3, []byte{1, 2, 3, 4}, true, nil))
	f.Add(BuildWrite(nil, 1, 2, 0x10000000, 3, []byte{1}, false, &imm))
	f.Add(BuildFetchAdd(nil, 1, 2, 0x10000000, 3, 42))
	f.Add(BuildWrite(nil, 1, 2, 0x10000000, 3, nil, false, nil))
	f.Add(BuildAck(nil, 1, 2, SynACK, 0, false, 0))
	f.Add(BuildAck(nil, 1, 2, SynACK, 0, true, 77))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		_ = DecodePacket(data, &p) // must never panic
	})
}

// FuzzDecodeWQE: the work-queue decoder never panics, and whatever it
// accepts encodes to a RoCEv2 packet that DecodePacket accepts with the
// same fields.
func FuzzDecodeWQE(f *testing.F) {
	imm := uint32(9)
	f.Add(WriteWQE(nil, 1, 2, 0x10000000, 3, []byte{1, 2, 3, 4}, true, nil))
	f.Add(WriteWQE(nil, 1, 2, 0x10000000, 3, []byte{1}, false, &imm))
	f.Add(WriteWQE(nil, 1, 2, 0x10000000, 3, nil, false, nil))
	f.Add(FetchAddWQE(nil, 1, 2, 0x10000000, 3, 42))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w, p Packet
		if DecodeWQE(data, &w) != nil {
			return
		}
		pkt, err := Encode(nil, data)
		if err != nil {
			t.Fatalf("decoded WQE does not encode: %v", err)
		}
		if err := DecodePacket(pkt, &p); err != nil {
			t.Fatalf("encoded packet rejected: %v", err)
		}
		if w.BTH != p.BTH || w.RETH != p.RETH || w.AtomicETH != p.AtomicETH || w.Imm != p.Imm || w.HasImm != p.HasImm || !bytes.Equal(w.Payload, p.Payload) {
			t.Fatalf("fields changed across Encode:\n WQE    %+v\n packet %+v", w, p)
		}
	})
}

// perVerbVerdict runs a post-list verb by verb on the wire — each WQE
// encoded (Encode) and run through Process, the reference for Execute —
// up to the first verb that stops a list, and returns what Execute
// should answer: the last response, the events and err. A WQE that does
// not encode stops the list with its error.
func perVerbVerdict(d *Device, wqes [][]byte) (c Completion, evs []ImmediateEvent, err error) {
	for _, w := range wqes {
		pkt, err := Encode(nil, w)
		if err != nil {
			return c, evs, err
		}
		a, ev, err := d.Process(pkt, nil)
		if err != nil {
			return c, evs, err
		}
		if ev != nil {
			evs = append(evs, *ev)
		}
		if a != nil {
			if c, err = decodeAck(a); err != nil {
				return c, evs, err
			}
			if c.Syndrome != SynACK {
				break
			}
		}
	}
	return c, evs, nil
}

// fuzzList turns a script into a post-list of WQEs against a 256-byte
// region: each 3-byte step picks a verb (WRITE, WRITE with immediate,
// FETCH&ADD, a FETCH&ADD at any alignment, a raw chunk of the script, or
// a WRITE with one byte corrupted), a PSN skew (mostly in sequence) and
// an address that may fall outside the region. No checksum stands in
// front of the device, so raw and corrupted entries reach its length,
// opcode, QP, PSN, rkey, bounds and alignment checks.
func fuzzList(script []byte, qpn uint32, mr *MemoryRegion) [][]byte {
	var wqes [][]byte
	psn := uint32(0)
	for len(script) >= 3 {
		kind, skew, addr := script[0], script[1], script[2]
		script = script[3:]
		p := psn
		switch {
		case skew < 200:
			psn++
		case skew < 230:
			p = (psn + uint32(skew)) & psnMask // ahead of the responder
		default:
			p = (psn - 1 - uint32(skew&3)) & psnMask // a duplicate
		}
		va := mr.Base + uint64(addr)
		imm := uint32(addr)
		var w []byte
		switch kind % 6 {
		case 0:
			w = WriteWQE(nil, qpn, p, va, mr.RKey, []byte{kind, skew}, kind&8 != 0, nil)
		case 1:
			w = WriteWQE(nil, qpn, p, va, mr.RKey, []byte{kind}, false, &imm)
		case 2:
			w = FetchAddWQE(nil, qpn, p, va&^7, mr.RKey, uint64(skew))
		case 3:
			w = FetchAddWQE(nil, qpn, p, va, mr.RKey, uint64(kind))
		case 4:
			n := min(int(addr)%80, len(script))
			w, script = slices.Clone(script[:n]), script[n:]
		case 5:
			w = WriteWQE(nil, qpn, p, va, mr.RKey, []byte{kind}, true, nil)
			w[int(addr)%len(w)] ^= skew | 1
		}
		wqes = append(wqes, w)
	}
	return wqes
}

// FuzzDeviceProcess: a random post-list of WQEs — data, raw bytes posted
// as the first entry, then the script's list — must answer through
// Execute exactly what per-verb processing of each entry's encoded
// packet answers, and leave the same memory, statistics and QP state.
func FuzzDeviceProcess(f *testing.F) {
	f.Add(WriteWQE(nil, 0x11, 0, 0x10000000, 0x1000, []byte{1, 2, 3, 4}, true, nil), []byte{})
	f.Add(FetchAddWQE(nil, 0x11, 0, 0x10000000, 0x1000, 5), []byte{0, 1, 8, 2, 1, 16, 1, 2, 250})
	f.Add([]byte{}, []byte{0, 1, 0, 1, 2, 0, 2, 3, 8, 5, 4, 9, 3, 210, 1, 0, 1, 255, 0, 4, 4})
	f.Add([]byte{}, []byte{2, 1, 8, 0, 1, 252, 2, 1, 248, 2, 240, 8, 1, 1, 1})
	f.Add([]byte{}, []byte{0, 210, 0, 0, 1, 0}) // NAK-sequence, then an in-sequence verb
	f.Fuzz(func(t *testing.T, data, script []byte) {
		d, ref := NewDevice(), NewDevice()
		mr, refMR := d.RegisterMemory(256), ref.RegisterMemory(256)
		qp := d.CreateQP(0)
		ref.CreateQP(0)
		wqes := fuzzList(script, qp.QPN, mr)
		if len(data) > 0 {
			wqes = append([][]byte{data}, wqes...)
		}
		var q SendQueue
		for _, w := range wqes {
			q.Post(w)
		}
		c, evs, err := d.Execute(&q, nil)
		refC, refEvs, refErr := perVerbVerdict(ref, wqes)
		if c != refC || !slices.Equal(evs, refEvs) || (err == nil) != (refErr == nil) {
			t.Fatalf("post-list answered %+v %v %v, per verb %+v %v %v", c, evs, err, refC, refEvs, refErr)
		}
		if d.Stats != ref.Stats || !bytes.Equal(mr.Buf, refMR.Buf) || *qp != *ref.qps[qp.QPN] {
			t.Fatalf("post-list left stats %+v, per verb %+v (or memory / QP state differs)", d.Stats, ref.Stats)
		}

		// The device must stay usable afterwards.
		pkt := BuildWrite(nil, qp.QPN, qp.EPSN, mr.Base, mr.RKey, []byte{9}, true, nil)
		ack, _, err := d.Process(pkt, nil)
		if err != nil || ack == nil {
			t.Fatalf("device wedged after fuzz input: %v", err)
		}
		if mr.Buf[0] != 9 {
			t.Fatal("write lost after fuzz input")
		}
	})
}
