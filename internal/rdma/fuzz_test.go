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
// accepts encodes, replica by replica, to a RoCEv2 packet that
// DecodePacket accepts with the fields DecodeWQE and Replica read. The
// doorbell, which reads the entry in place, refuses exactly what the
// decoder refuses. The input also drives a built entry of 1 to 8
// replicas: replica i must encode to the packet built for PSN+i and the
// i-th address, and the entry with its replica count zeroed or its
// address list cut short must be refused.
func FuzzDecodeWQE(f *testing.F) {
	imm := uint32(9)
	vas := []uint64{0x10000000, 0x10000040, 0x10000080}
	f.Add(new(SendQueue).WriteWQE(1, 2, vas[:1], 3, []byte{1, 2, 3, 4}, true, nil))
	f.Add(new(SendQueue).WriteWQE(1, 2, vas[:1], 3, []byte{1}, false, &imm))
	f.Add(new(SendQueue).WriteWQE(1, 2, vas[:1], 3, nil, false, nil))
	f.Add(new(SendQueue).FetchAddWQE(1, 2, vas[:1], 3, 42))
	f.Add([]byte{})
	f.Add(new(SendQueue).WriteWQE(1, psnMask, vas, 3, []byte{1, 2, 3, 4}, false, &imm))
	f.Add(new(SendQueue).FetchAddWQE(1, 2, vas[:2], 3, 42))
	// Entries for the QP and region doorbellRefusesAsDecoder sets up.
	f.Add(new(SendQueue).WriteWQE(0x11, 0, vas[:2], 0x1000, []byte{1, 2, 3, 4, 5, 6, 7, 8}, true, nil))
	f.Add(new(SendQueue).FetchAddWQE(0x11, 0, vas[1:], 0x1000, 42))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w, p Packet
		if n, err := DecodeWQE(data, &w); err == nil {
			for i := range n {
				Replica(data, i, &w)
				pkt, err := Encode(nil, data, i)
				if err != nil {
					t.Fatalf("replica %d of a decoded WQE does not encode: %v", i, err)
				}
				if err := DecodePacket(pkt, &p); err != nil {
					t.Fatalf("replica %d: encoded packet rejected: %v", i, err)
				}
				if w.BTH != p.BTH || w.RETH != p.RETH || w.AtomicETH != p.AtomicETH || w.Imm != p.Imm || w.HasImm != p.HasImm || !bytes.Equal(w.Payload, p.Payload) {
					t.Fatalf("replica %d: fields changed across Encode:\n WQE    %+v\n packet %+v", i, w, p)
				}
			}
			if _, err := Encode(nil, data, n); err == nil {
				t.Fatalf("replica %d of a %d-replica WQE encoded", n, n)
			}
		}
		doorbellRefusesAsDecoder(t, data)
		builtMatchesPerVerb(t, data)
	})
}

// doorbellRefusesAsDecoder posts data as one entry on a device with a QP
// and a region: Execute must answer DecodeWQE's error if DecodeWQE
// refuses the entry, and no header error otherwise; a refused entry
// leaves memory, DeviceStats, QP state and the CQE as they were.
func doorbellRefusesAsDecoder(t *testing.T, data []byte) {
	if len(data) == 0 {
		return // Post takes no empty entry
	}
	d := NewDevice()
	mr := d.RegisterMemory(256)
	qp := d.CreateQP(0)
	before := *qp
	var q SendQueue
	w := q.Tail(len(data))
	copy(w, data)
	q.Post(w)
	var c Completion
	_, err := d.Execute(&q, nil, &c)
	_, want := DecodeWQE(data, new(Packet))
	switch {
	case want == nil && err != nil && err != ErrUnknownQP:
		t.Fatalf("DecodeWQE accepts the entry, the doorbell refused it: %v", err)
	case want == nil:
	case err == nil || err.Error() != want.Error():
		t.Fatalf("DecodeWQE refuses the entry with %q, the doorbell answered %v", want, err)
	case d.Stats != (DeviceStats{}) || *qp != before || c != (Completion{}) || slices.ContainsFunc(mr.Buf, func(b byte) bool { return b != 0 }):
		t.Fatalf("a refused entry left stats %+v, QP %+v, CQE %+v (or memory)", d.Stats, *qp, c)
	}
}

// builtMatchesPerVerb builds an entry of 1 to 8 replicas from data — its
// opcode, flags, PSN, addresses and payload — and holds each replica's
// encoding to the packet built directly for that verb; then zeroes the
// replica count and cuts the address list, which DecodeWQE must refuse.
func builtMatchesPerVerb(t *testing.T, data []byte) {
	if len(data) < 8 {
		return
	}
	kind, n := data[0], 1+int(data[1]%8)
	psn := ne.Uint32(data[2:]) & psnMask
	rkey, qpn := uint32(data[6]), uint32(data[7])
	payload := data[8:min(len(data), 8+64)]
	vas := make([]uint64, n)
	for i := range vas {
		vas[i] = 0x10000000 + uint64(i)*uint64(kind|1)*8
	}
	imm := uint32(kind) << 8
	var q SendQueue
	var w []byte
	switch kind % 3 {
	case 0:
		w = q.WriteWQE(qpn, psn, vas, rkey, payload, kind&4 != 0, nil)
	case 1:
		w = q.WriteWQE(qpn, psn, vas, rkey, payload, kind&4 != 0, &imm)
	case 2:
		w = q.FetchAddWQE(qpn, psn, vas, rkey, uint64(kind))
	}
	for i, va := range vas {
		p := (psn + uint32(i)) & psnMask
		var want []byte
		switch kind % 3 {
		case 0:
			want = BuildWrite(nil, qpn, p, va, rkey, payload, kind&4 != 0, nil)
		case 1:
			want = BuildWrite(nil, qpn, p, va, rkey, payload, kind&4 != 0, &imm)
		case 2:
			want = BuildFetchAdd(nil, qpn, p, va, rkey, uint64(kind))
		}
		if got, err := Encode(nil, w, i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica %d of %d encodes to %x (%v), the verb's packet is %x", i, n, got, err, want)
		}
	}
	var p Packet
	zero := slices.Clone(w)
	zero[wqeReplicas] = 0
	if _, err := DecodeWQE(zero, &p); err == nil {
		t.Fatal("an entry of zero replicas decoded")
	}
	cut := wqeHdrLen + int(kind)%(8*n)
	if _, err := DecodeWQE(w[:cut], &p); err == nil {
		t.Fatalf("an entry of %d replicas cut to %d bytes, inside its address list, decoded", n, cut)
	}
}

// perVerbVerdict runs a post-list verb by verb on the wire — each
// replica of each WQE encoded (Encode) and run through Process, the
// reference for Execute — up to the first verb that stops a list, and
// returns what Execute should answer: the last response, the events and
// err. A WQE that does not decode stops the list with its error.
func perVerbVerdict(d *Device, wqes [][]byte) (c Completion, evs []ImmediateEvent, err error) {
	for _, w := range wqes {
		n, err := DecodeWQE(w, new(Packet))
		if err != nil {
			return c, evs, err
		}
		for i := range n {
			pkt, err := Encode(nil, w, i)
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
					return c, evs, nil
				}
			}
		}
	}
	return c, evs, nil
}

// postAll builds each of wqes at q's tail and posts it.
func postAll(q *SendQueue, wqes [][]byte) {
	for _, w := range wqes {
		tail := q.Tail(len(w))
		copy(tail, w)
		q.Post(tail)
	}
}

// fuzzList turns a script into a post-list of WQEs against a 256-byte
// region: each 3-byte step picks a verb (WRITE, WRITE with immediate,
// FETCH&ADD, a FETCH&ADD at any alignment, a raw chunk of the script, or
// a WRITE with one byte corrupted), a replica count of 1 to 8, a PSN
// skew (mostly in sequence) and addresses that may fall outside the
// region. No checksum stands in front of the device, so raw and
// corrupted entries reach its length, opcode, QP, PSN, rkey, bounds and
// alignment checks.
func fuzzList(script []byte, qpn uint32, mr *MemoryRegion) [][]byte {
	var wqes [][]byte
	psn := uint32(0)
	for len(script) >= 3 {
		kind, skew, addr := script[0], script[1], script[2]
		script = script[3:]
		n := 1 + int(kind/6)%8
		p := psn
		switch {
		case skew < 200:
			psn = (psn + uint32(n)) & psnMask
		case skew < 230:
			p = (psn + uint32(skew)) & psnMask // ahead of the responder
		default:
			p = (psn - 1 - uint32(skew&3)) & psnMask // duplicates
		}
		vas := make([]uint64, n)
		for i := range vas {
			vas[i] = mr.Base + uint64(addr) + uint64(i)*uint64(skew%48)
		}
		imm := uint32(addr)
		q := new(SendQueue)
		var w []byte
		switch kind % 6 {
		case 0:
			w = q.WriteWQE(qpn, p, vas, mr.RKey, []byte{kind, skew}, kind&8 != 0, nil)
		case 1:
			w = q.WriteWQE(qpn, p, vas, mr.RKey, []byte{kind}, false, &imm)
		case 2:
			for i := range vas {
				vas[i] &^= 7
			}
			w = q.FetchAddWQE(qpn, p, vas, mr.RKey, uint64(skew))
		case 3:
			w = q.FetchAddWQE(qpn, p, vas, mr.RKey, uint64(kind))
		case 4:
			m := min(int(addr)%80, len(script))
			if m == 0 {
				continue // Post takes no empty entry
			}
			w, script = slices.Clone(script[:m]), script[m:]
		case 5:
			w = q.WriteWQE(qpn, p, vas, mr.RKey, []byte{kind}, true, nil)
			w[int(addr)%len(w)] ^= skew | 1
		}
		wqes = append(wqes, w)
	}
	return wqes
}

// FuzzDeviceProcess: a random post-list of WQEs of 1 to 8 replicas —
// data, raw bytes posted as the first entry, then the script's list —
// must answer through Execute exactly what per-verb processing of each
// replica's encoded packet answers, and leave the same memory,
// statistics and QP state.
func FuzzDeviceProcess(f *testing.F) {
	f.Add(new(SendQueue).WriteWQE(0x11, 0, []uint64{0x10000000}, 0x1000, []byte{1, 2, 3, 4}, true, nil), []byte{})
	f.Add(new(SendQueue).FetchAddWQE(0x11, 0, []uint64{0x10000000}, 0x1000, 5), []byte{0, 1, 8, 2, 1, 16, 1, 2, 250})
	f.Add([]byte{}, []byte{0, 1, 0, 1, 2, 0, 2, 3, 8, 5, 4, 9, 3, 210, 1, 0, 1, 255, 0, 4, 4})
	f.Add([]byte{}, []byte{2, 1, 8, 0, 1, 252, 2, 1, 248, 2, 240, 8, 1, 1, 1})
	f.Add([]byte{}, []byte{0, 210, 0, 0, 1, 0}) // NAK-sequence, then an in-sequence verb
	f.Add(new(SendQueue).WriteWQE(0x11, 0, []uint64{0x10000000, 0x10000010, 0x10000100}, 0x1000, []byte{1}, true, nil), []byte{6, 8, 0})
	f.Add([]byte{}, []byte{12, 16, 0, 20, 24, 64, 38, 240, 8, 14, 250, 200}) // multicast writes and atomics, a duplicate run
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
		postAll(&q, wqes)
		var c Completion
		evs, err := d.Execute(&q, nil, &c)
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
