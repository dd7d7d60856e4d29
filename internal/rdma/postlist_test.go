package rdma

import (
	"encoding/binary"
	"testing"
)

// decodeAck reads the Completion an acknowledgement packet carries: the
// inverse of the ack Process returns.
func decodeAck(pkt []byte) (Completion, error) {
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		return Completion{}, err
	}
	if p.BTH.Opcode != OpAcknowledge && p.BTH.Opcode != OpAtomicAck {
		return Completion{}, ErrBadOpcode
	}
	return Completion{Set: true, Atomic: p.BTH.Opcode == OpAtomicAck, Syndrome: p.AETH.Syndrome,
		QPN: p.BTH.DestQP, PSN: p.BTH.PSN, MSN: p.AETH.MSN, Orig: p.OrigValue}, nil
}

// completionOf decodes an acknowledgement packet, failing the test on
// garbage.
func completionOf(t *testing.T, ack []byte) Completion {
	t.Helper()
	c, err := decodeAck(ack)
	if err != nil {
		t.Fatalf("acknowledgement does not decode: %v", err)
	}
	return c
}

// TestPostListStopsAtNAK: an access fault in the middle of a list is
// counted, answered as the list's one completion (a NAK-access naming the
// faulted verb), and nothing after it executes; the requester rolls back
// to the faulted PSN, so the next list it posts is in sequence. A list
// that starts ahead of the responder is refused whole with a NAK-sequence
// and the requester resynchronises the same way.
func TestPostListStopsAtNAK(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 1024)
	req := &Requester{DestQP: qp.QPN}
	imm := uint32(7)
	var q SendQueue
	q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mr.Base, mr.RKey, []byte{1}, false, &imm))
	q.Post(FetchAddWQE(nil, qp.QPN, req.NextPSN(), mr.Base+8, mr.RKey, 5))
	faulted := req.NextPSN()
	q.Post(WriteWQE(nil, qp.QPN, faulted, mr.Base+1020, mr.RKey, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false, nil))
	q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mr.Base+16, mr.RKey, []byte{9}, false, &imm))
	q.Post(FetchAddWQE(nil, qp.QPN, req.NextPSN(), mr.Base+24, mr.RKey, 1))

	a, evs, err := d.Execute(&q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Syndrome != SynNAKAcc || a.PSN != faulted {
		t.Fatalf("completion = syndrome %#x PSN %d, want NAK-access at %d", a.Syndrome, a.PSN, faulted)
	}
	if want := (DeviceStats{Writes: 1, WriteLines: 1, FetchAdds: 1, AccessErrs: 1}); d.Stats != want {
		t.Fatalf("stats = %+v, want %+v", d.Stats, want)
	}
	if mr.Buf[16] != 0 || binary.BigEndian.Uint64(mr.Buf[24:]) != 0 {
		t.Fatal("a verb after the NAK executed")
	}
	if len(evs) != 1 || evs[0] != (ImmediateEvent{QPN: qp.QPN, Imm: imm}) {
		t.Fatalf("events = %v, want only the first verb's", evs)
	}
	req.HandleAck(a)
	if req.NPSN != faulted || req.Resyncs != 1 {
		t.Fatalf("requester NPSN %d resyncs %d, want %d and 1", req.NPSN, req.Resyncs, faulted)
	}

	// The next list picks up where the responder stopped.
	q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mr.Base+16, mr.RKey, []byte{9}, false, nil))
	last := req.NextPSN()
	q.Post(FetchAddWQE(nil, qp.QPN, last, mr.Base+24, mr.RKey, 1))
	a, _, err = d.Execute(&q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Syndrome != SynACK || a.PSN != last || d.Stats.SeqErrors != 0 {
		t.Fatalf("next list: completion syndrome %#x PSN %d, seq errors %d", a.Syndrome, a.PSN, d.Stats.SeqErrors)
	}
	if mr.Buf[16] != 9 || binary.BigEndian.Uint64(mr.Buf[24:]) != 1 {
		t.Fatal("next list did not execute")
	}
	req.HandleAck(a)
	if req.Acked != req.NPSN {
		t.Fatalf("Acked %d, NPSN %d: the last completion should acknowledge everything", req.Acked, req.NPSN)
	}

	// A list that starts ahead of the responder: nothing executes.
	_ = req.NextPSN() // lost
	q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mr.Base+32, mr.RKey, []byte{1}, false, nil))
	q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mr.Base+33, mr.RKey, []byte{1}, true, nil))
	a, _, err = d.Execute(&q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Syndrome != SynNAKSeq || d.Stats.SeqErrors != 1 || mr.Buf[32]|mr.Buf[33] != 0 {
		t.Fatalf("list ahead of the responder: syndrome %#x, stats %+v, memory %v", a.Syndrome, d.Stats, mr.Buf[32:34])
	}
	req.HandleAck(a)
	q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mr.Base+32, mr.RKey, []byte{1}, true, nil))
	if a, _, err = d.Execute(&q, nil); err != nil || a.Syndrome != SynACK || mr.Buf[32] != 1 {
		t.Fatalf("resynchronised list: %v, memory %v", err, mr.Buf[32:34])
	}
}

// TestPostListEmptyAndUnacked: an empty list and a list of writes that
// ask for no response both complete with nothing to send back.
func TestPostListEmptyAndUnacked(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	var q SendQueue
	if c, evs, err := d.Execute(&q, nil); c.Set || evs != nil || err != nil {
		t.Fatalf("empty list: %+v %v %v", c, evs, err)
	}
	q.Post(WriteWQE(nil, qp.QPN, 0, mr.Base, mr.RKey, []byte{1}, false, nil))
	q.Post(WriteWQE(nil, qp.QPN, 1, mr.Base+1, mr.RKey, []byte{2}, false, nil))
	if c, _, err := d.Execute(&q, nil); c.Set || err != nil || mr.Buf[1] != 2 {
		t.Fatalf("unacked list: %+v %v %v", c, err, mr.Buf[:2])
	}
}
