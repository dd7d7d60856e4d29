package rdma

import (
	"bytes"
	"slices"
	"testing"
)

// Fuzz targets for the RoCEv2 decoder and the responder state machine.

func FuzzDecodePacket(f *testing.F) {
	imm := uint32(9)
	f.Add(BuildWrite(nil, 1, 2, 0x10000000, 3, []byte{1, 2, 3, 4}, true, nil))
	f.Add(BuildWrite(nil, 1, 2, 0x10000000, 3, []byte{1}, false, &imm))
	f.Add(BuildFetchAdd(nil, 1, 2, 0x10000000, 3, 42))
	f.Add(BuildSend(nil, 1, 2, []byte("metadata")))
	f.Add(BuildAck(nil, 1, 2, SynACK, 0, false, 0))
	f.Add(BuildAck(nil, 1, 2, SynACK, 0, true, 77))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		_ = DecodePacket(data, &p) // must never panic
	})
}

// perVerbVerdict runs verbs one by one through Process — the reference
// for a post-list — up to the first verb that stops a list, and returns
// what Execute should answer: the last response, the events and err.
func perVerbVerdict(d *Device, verbs [][]byte) (ack []byte, evs []ImmediateEvent, err error) {
	for _, v := range verbs {
		a, ev, err := d.Process(v, nil)
		if err != nil {
			return ack, evs, err
		}
		if ev != nil {
			evs = append(evs, *ev)
		}
		if a != nil {
			ack = a
			var p Packet
			if DecodePacket(a, &p) == nil && p.AETH.Syndrome != SynACK {
				break
			}
		}
	}
	return ack, evs, nil
}

// fuzzList turns a script into a post-list against a 256-byte region:
// each 3-byte step picks a verb (WRITE, WRITE with immediate, FETCH&ADD,
// SEND, a raw chunk of the script, or a corrupted WRITE), a PSN skew
// (mostly in sequence) and an address that may fall outside the region.
func fuzzList(script []byte, qpn uint32, mr *MemoryRegion) [][]byte {
	var verbs [][]byte
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
		var v []byte
		switch kind % 6 {
		case 0:
			v = BuildWrite(nil, qpn, p, va, mr.RKey, []byte{kind, skew}, kind&8 != 0, nil)
		case 1:
			v = BuildWrite(nil, qpn, p, va, mr.RKey, []byte{kind}, false, &imm)
		case 2:
			v = BuildFetchAdd(nil, qpn, p, va&^7, mr.RKey, uint64(skew))
		case 3:
			v = BuildSend(nil, qpn, p, []byte{addr})
		case 4:
			n := min(int(addr%32), len(script))
			v, script = slices.Clone(script[:n]), script[n:]
		case 5:
			v = BuildWrite(nil, qpn, p, va, mr.RKey, []byte{kind}, true, nil)
			v[int(addr)%len(v)] ^= skew | 1
		}
		verbs = append(verbs, v)
	}
	return verbs
}

func FuzzDeviceProcess(f *testing.F) {
	f.Add(BuildWrite(nil, 0x11, 0, 0x10000000, 0x1000, []byte{1, 2, 3, 4}, true, nil), []byte{})
	f.Add(BuildFetchAdd(nil, 0x11, 0, 0x10000000, 0x1000, 5), []byte{0, 1, 8, 2, 1, 16, 1, 2, 250})
	f.Add([]byte{}, []byte{0, 1, 0, 1, 2, 0, 2, 3, 8, 5, 4, 9, 3, 210, 1, 0, 1, 255, 0, 4, 4})
	f.Add([]byte{}, []byte{2, 1, 8, 0, 1, 252, 2, 1, 248, 2, 240, 8, 1, 1, 1})
	f.Add([]byte{}, []byte{0, 210, 0, 0, 1, 0}) // NAK-sequence, then an in-sequence verb
	f.Fuzz(func(t *testing.T, data, script []byte) {
		d := NewDevice()
		mr := d.RegisterMemory(256)
		qp := d.CreateQP(0)
		_, _, _ = d.Process(data, nil) // arbitrary bytes: no panic

		// A random post-list must answer exactly what per-verb processing
		// answers, up to the first verb that did not execute.
		ref := NewDevice()
		refMR := ref.RegisterMemory(256)
		ref.CreateQP(0)
		_, _, _ = ref.Process(data, nil)
		verbs := fuzzList(script, qp.QPN, mr)
		var q SendQueue
		for _, v := range verbs {
			q.Post(v)
		}
		ack, evs, err := d.Execute(&q, nil, nil)
		refAck, refEvs, refErr := perVerbVerdict(ref, verbs)
		if !bytes.Equal(ack, refAck) || !slices.Equal(evs, refEvs) || (err == nil) != (refErr == nil) {
			t.Fatalf("post-list answered %x %v %v, per verb %x %v %v", ack, evs, err, refAck, refEvs, refErr)
		}
		if d.Stats != ref.Stats || !bytes.Equal(mr.Buf, refMR.Buf) || *qp != *ref.qps[qp.QPN] {
			t.Fatalf("post-list left stats %+v, per verb %+v (or memory / QP state differs)", d.Stats, ref.Stats)
		}

		// The device must stay usable afterwards.
		pkt := BuildWrite(nil, qp.QPN, qp.EPSN, mr.Base, mr.RKey, []byte{9}, true, nil)
		ack, _, err = d.Process(pkt, nil)
		if err != nil || ack == nil {
			t.Fatalf("device wedged after fuzz input: %v", err)
		}
		if mr.Buf[0] != 9 {
			t.Fatal("write lost after fuzz input")
		}
	})
}

func FuzzUnmarshalReply(f *testing.F) {
	f.Add(MarshalReply(&ConnectReply{
		ResponderQPN: 1, StartPSN: 2,
		Regions: []RegionInfo{{Label: "keywrite", RKey: 3, VA: 4, Length: 5, Slots: 6, SlotSize: 8}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := UnmarshalReply(data)
		if err != nil {
			return
		}
		// Whatever parses must survive a marshal/unmarshal round trip.
		again, err := UnmarshalReply(MarshalReply(rep))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if len(again.Regions) != len(rep.Regions) {
			t.Fatal("regions changed across round trip")
		}
	})
}
