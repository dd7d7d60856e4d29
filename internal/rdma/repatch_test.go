package rdma

import (
	"bytes"
	"testing"
)

// TestRepatchPSNVAMatchesRebuild pins the multicast forms against
// rebuilding from scratch, for WRITE (with and without immediate) and
// FETCH&ADD: a packet patched with a replica's PSN and VA (RepatchPSNVA)
// is byte-identical to one rebuilt for them, and so is the encoding
// (Encode) of that replica of one work-queue entry carrying every
// address — the replicas' PSNs running on across the 2^24 wrap.
func TestRepatchPSNVAMatchesRebuild(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	imm := uint32(0xdeadbeef)
	vas := []uint64{0x10000000, 0x10000040, 0x10facad8, 0x2ffffff8}
	const base = 1<<24 - 2
	type build func(psn uint32, va uint64) []byte
	cases := []struct {
		name string
		pkt  build
		wqe  func(q *SendQueue) []byte
	}{
		{"write", func(psn uint32, va uint64) []byte {
			return BuildWrite(nil, 0x11, psn, va, 0x1000, payload, false, nil)
		}, func(q *SendQueue) []byte {
			return q.WriteWQE(0x11, base, vas, 0x1000, payload, false, nil)
		}},
		{"write-imm", func(psn uint32, va uint64) []byte {
			return BuildWrite(nil, 0x11, psn, va, 0x1000, payload, true, &imm)
		}, func(q *SendQueue) []byte {
			return q.WriteWQE(0x11, base, vas, 0x1000, payload, true, &imm)
		}},
		{"fetchadd", func(psn uint32, va uint64) []byte {
			return BuildFetchAdd(nil, 0x11, psn, va, 0x1000, 7)
		}, func(q *SendQueue) []byte {
			return q.FetchAddWQE(0x11, base, vas, 0x1000, 7)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pkt, wqe := c.pkt(base, vas[0]), c.wqe(new(SendQueue))
			for i, va := range vas {
				psn := uint32(base+i) & psnMask
				RepatchPSNVA(pkt, psn, va)
				want := c.pkt(psn, va)
				if !bytes.Equal(pkt, want) {
					t.Fatalf("replica %d: patched packet differs from rebuilt", i)
				}
				if enc, err := Encode(nil, wqe, i); err != nil || !bytes.Equal(enc, want) {
					t.Fatalf("replica %d: the entry encodes to %x (%v), want %x", i, enc, err, want)
				}
				var p Packet
				if err := DecodePacket(pkt, &p); err != nil {
					t.Fatalf("replica %d: patched packet rejected: %v", i, err)
				}
				if p.BTH.PSN != psn {
					t.Fatalf("replica %d: PSN = %d, want %d", i, p.BTH.PSN, psn)
				}
			}
		})
	}
}

// TestRepatchIncrementalICRCAllSizes pins the replica forms across
// payload sizes from the minimum WRITE to postcard-chunk scale, PSN/VA
// edge patterns and repeated patches of the same request: the packet
// RepatchPSNVA leaves (PSN, VA and a restamped ICRC) equals one rebuilt
// from scratch, and so does the matching replica of an entry carrying
// every address.
func TestRepatchIncrementalICRCAllSizes(t *testing.T) {
	steps := []struct {
		psn uint32
		va  uint64
	}{
		{1<<24 - 1, 0},
		{0, ^uint64(0)},
		{1, 0x8000000000000000},
		{2, 0x1234}, // back to (almost) the original fields
		{3, 0xdeadbeefcafef00d},
	}
	vas := make([]uint64, len(steps))
	for i, s := range steps {
		vas[i] = s.va
	}
	for _, n := range []int{0, 1, 4, 8, 24, 63, 100, 256, 1024, 4000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		pkt := BuildWrite(nil, 0x33, 5, 0x1234, 0x77, payload, false, nil)
		wqe := new(SendQueue).WriteWQE(0x33, steps[0].psn, vas, 0x77, payload, false, nil)
		for i, s := range steps {
			RepatchPSNVA(pkt, s.psn, s.va)
			want := BuildWrite(nil, 0x33, s.psn, s.va, 0x77, payload, false, nil)
			if !bytes.Equal(pkt, want) {
				t.Fatalf("payload %dB step %d: repatched packet diverges from a rebuild", n, i)
			}
			if enc, err := Encode(nil, wqe, i); err != nil || !bytes.Equal(enc, want) {
				t.Fatalf("payload %dB replica %d: the entry encodes differently (%v)", n, i, err)
			}
		}
	}
}

// TestBuildersReuseBuffer verifies the packet builders craft in place
// when the caller-owned buffer has capacity, and that a send queue
// reused across doorbells builds, commits and executes multicast entries
// without allocating.
func TestBuildersReuseBuffer(t *testing.T) {
	buf := make([]byte, 0, 512)
	payload := []byte{1, 2, 3, 4}
	pkt := BuildWrite(buf, 1, 2, 3, 4, payload, false, nil)
	if &pkt[0] != &buf[:1][0] {
		t.Fatal("BuildWrite did not reuse the caller buffer")
	}
	d := NewDevice()
	mr := d.RegisterMemory(256)
	qp := d.CreateQP(0)
	req := &Requester{DestQP: qp.QPN}
	vas := []uint64{mr.Base, mr.Base + 64, mr.Base + 128}
	var q SendQueue
	var c Completion
	evs := make([]ImmediateEvent, 0, 1)
	imm := uint32(7)
	doorbell := func() {
		q.Post(q.WriteWQE(qp.QPN, req.NextPSNs(len(vas)), vas, mr.RKey, payload, false, &imm))
		q.Post(q.FetchAddWQE(qp.QPN, req.NextPSNs(len(vas)-1), vas[1:], mr.RKey, 5))
		evs, _ = d.Execute(&q, evs[:0], &c)
		req.HandleAck(&c)
	}
	doorbell() // the queue grows once
	evs = make([]ImmediateEvent, 0, len(vas))
	allocs := testing.AllocsPerRun(100, func() {
		pkt = BuildWrite(pkt, 1, 2, 3, 4, payload, false, nil)
		RepatchPSNVA(pkt, 5, 6)
		pkt = BuildFetchAdd(pkt, 1, 2, 3, 4, 5)
		pkt = BuildAck(pkt, 1, 2, SynACK, 3, true, 9)
		doorbell()
	})
	if allocs != 0 {
		t.Fatalf("builders allocated %.1f times per run, want 0", allocs)
	}
	if c.Syndrome != SynACK || len(evs) != len(vas) || d.Stats.Writes != 102*3 || d.Stats.FetchAdds != 102*2 {
		t.Fatalf("doorbells did not run every replica: CQE %+v, %d events, stats %+v", c, len(evs), d.Stats)
	}
}
