package rdma

import (
	"encoding/binary"
	"testing"
)

// ackOf decodes a completion, failing the test on garbage.
func ackOf(t *testing.T, ack []byte) *Packet {
	t.Helper()
	var a Packet
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatalf("completion does not decode: %v", err)
	}
	return &a
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
	q.Post(BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base, mr.RKey, []byte{1}, false, &imm))
	q.Post(BuildFetchAdd(nil, qp.QPN, req.NextPSN(), mr.Base+8, mr.RKey, 5))
	faulted := req.NextPSN()
	q.Post(BuildWrite(nil, qp.QPN, faulted, mr.Base+1020, mr.RKey, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false, nil))
	q.Post(BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base+16, mr.RKey, []byte{9}, false, &imm))
	q.Post(BuildFetchAdd(nil, qp.QPN, req.NextPSN(), mr.Base+24, mr.RKey, 1))

	ack, evs, err := d.Execute(&q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := ackOf(t, ack)
	if a.AETH.Syndrome != SynNAKAcc || a.BTH.PSN != faulted {
		t.Fatalf("completion = syndrome %#x PSN %d, want NAK-access at %d", a.AETH.Syndrome, a.BTH.PSN, faulted)
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
	q.Post(BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base+16, mr.RKey, []byte{9}, false, nil))
	last := req.NextPSN()
	q.Post(BuildFetchAdd(nil, qp.QPN, last, mr.Base+24, mr.RKey, 1))
	ack, _, err = d.Execute(&q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a = ackOf(t, ack)
	if a.AETH.Syndrome != SynACK || a.BTH.PSN != last || d.Stats.SeqErrors != 0 {
		t.Fatalf("next list: completion syndrome %#x PSN %d, seq errors %d", a.AETH.Syndrome, a.BTH.PSN, d.Stats.SeqErrors)
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
	q.Post(BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base+32, mr.RKey, []byte{1}, false, nil))
	q.Post(BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base+33, mr.RKey, []byte{1}, true, nil))
	ack, _, err = d.Execute(&q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a = ackOf(t, ack)
	if a.AETH.Syndrome != SynNAKSeq || d.Stats.SeqErrors != 1 || mr.Buf[32]|mr.Buf[33] != 0 {
		t.Fatalf("list ahead of the responder: syndrome %#x, stats %+v, memory %v", a.AETH.Syndrome, d.Stats, mr.Buf[32:34])
	}
	req.HandleAck(a)
	q.Post(BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base+32, mr.RKey, []byte{1}, true, nil))
	if ack, _, err = d.Execute(&q, nil, nil); err != nil || ackOf(t, ack).AETH.Syndrome != SynACK || mr.Buf[32] != 1 {
		t.Fatalf("resynchronised list: %v, memory %v", err, mr.Buf[32:34])
	}
}

// TestPostListEmptyAndUnacked: an empty list and a list of writes that
// ask for no response both complete with nothing to send back.
func TestPostListEmptyAndUnacked(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	var q SendQueue
	if ack, evs, err := d.Execute(&q, nil, nil); ack != nil || evs != nil || err != nil {
		t.Fatalf("empty list: %v %v %v", ack, evs, err)
	}
	q.Post(BuildWrite(nil, qp.QPN, 0, mr.Base, mr.RKey, []byte{1}, false, nil))
	q.Post(BuildWrite(nil, qp.QPN, 1, mr.Base+1, mr.RKey, []byte{2}, false, nil))
	if ack, _, err := d.Execute(&q, nil, nil); ack != nil || err != nil || mr.Buf[1] != 2 {
		t.Fatalf("unacked list: %v %v %v", ack, err, mr.Buf[:2])
	}
}
