package rdma

import (
	"bytes"
	"encoding/binary"
	"slices"
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
func completionOf(t *testing.T, ack []byte) *Completion {
	t.Helper()
	c, err := decodeAck(ack)
	if err != nil {
		t.Fatalf("acknowledgement does not decode: %v", err)
	}
	return &c
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
	q.Post(q.WriteWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base}, mr.RKey, []byte{1}, false, &imm))
	q.Post(q.FetchAddWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base + 8}, mr.RKey, 5))
	faulted := req.NextPSN()
	q.Post(q.WriteWQE(qp.QPN, faulted, []uint64{mr.Base + 1020}, mr.RKey, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false, nil))
	q.Post(q.WriteWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base + 16}, mr.RKey, []byte{9}, false, &imm))
	q.Post(q.FetchAddWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base + 24}, mr.RKey, 1))

	var a Completion
	evs, err := d.Execute(&q, nil, &a)
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
	req.HandleAck(&a)
	if req.NPSN != faulted || req.Resyncs != 1 {
		t.Fatalf("requester NPSN %d resyncs %d, want %d and 1", req.NPSN, req.Resyncs, faulted)
	}

	// The next list picks up where the responder stopped.
	q.Post(q.WriteWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base + 16}, mr.RKey, []byte{9}, false, nil))
	last := req.NextPSN()
	q.Post(q.FetchAddWQE(qp.QPN, last, []uint64{mr.Base + 24}, mr.RKey, 1))
	_, err = d.Execute(&q, nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	if a.Syndrome != SynACK || a.PSN != last || d.Stats.SeqErrors != 0 {
		t.Fatalf("next list: completion syndrome %#x PSN %d, seq errors %d", a.Syndrome, a.PSN, d.Stats.SeqErrors)
	}
	if mr.Buf[16] != 9 || binary.BigEndian.Uint64(mr.Buf[24:]) != 1 {
		t.Fatal("next list did not execute")
	}
	req.HandleAck(&a)
	if req.Acked != req.NPSN {
		t.Fatalf("Acked %d, NPSN %d: the last completion should acknowledge everything", req.Acked, req.NPSN)
	}

	// A list that starts ahead of the responder: nothing executes.
	_ = req.NextPSN() // lost
	q.Post(q.WriteWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base + 32}, mr.RKey, []byte{1}, false, nil))
	q.Post(q.WriteWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base + 33}, mr.RKey, []byte{1}, true, nil))
	_, err = d.Execute(&q, nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	if a.Syndrome != SynNAKSeq || d.Stats.SeqErrors != 1 || mr.Buf[32]|mr.Buf[33] != 0 {
		t.Fatalf("list ahead of the responder: syndrome %#x, stats %+v, memory %v", a.Syndrome, d.Stats, mr.Buf[32:34])
	}
	req.HandleAck(&a)
	q.Post(q.WriteWQE(qp.QPN, req.NextPSN(), []uint64{mr.Base + 32}, mr.RKey, []byte{1}, true, nil))
	if _, err = d.Execute(&q, nil, &a); err != nil || a.Syndrome != SynACK || mr.Buf[32] != 1 {
		t.Fatalf("resynchronised list: %v, memory %v", err, mr.Buf[32:34])
	}
}

// TestPostListEmptyAndUnacked: an empty list and a list of writes that
// ask for no response both complete with nothing to send back.
func TestPostListEmptyAndUnacked(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	var q SendQueue
	var c Completion
	if evs, err := d.Execute(&q, nil, &c); c.Set || evs != nil || err != nil {
		t.Fatalf("empty list: %+v %v %v", c, evs, err)
	}
	q.Post(q.WriteWQE(qp.QPN, 0, []uint64{mr.Base}, mr.RKey, []byte{1}, false, nil))
	q.Post(q.WriteWQE(qp.QPN, 1, []uint64{mr.Base + 1}, mr.RKey, []byte{2}, false, nil))
	if _, err := d.Execute(&q, nil, &c); c.Set || err != nil || mr.Buf[1] != 2 {
		t.Fatalf("unacked list: %+v %v %v", c, err, mr.Buf[:2])
	}
}

// TestExecuteWritesCompletionInPlace: Execute clears the CQE it is
// handed, whatever it held, and writes the list's one completion into
// it — nothing for an empty list or for writes that ask for no
// response, the acknowledged verb's response, or the NAK that stopped
// the list.
func TestExecuteWritesCompletionInPlace(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	garbage := Completion{Set: true, Atomic: true, Syndrome: 0xee, QPN: 0xdead, PSN: 0xbeef, MSN: 0xf00d, Orig: ^uint64(0)}
	var q SendQueue
	run := func(what string) Completion {
		t.Helper()
		c := garbage
		if _, err := d.Execute(&q, nil, &c); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return c
	}
	if c := run("empty list"); c != (Completion{}) {
		t.Fatalf("empty list left %+v in the CQE", c)
	}
	q.Post(q.WriteWQE(qp.QPN, 0, []uint64{mr.Base}, mr.RKey, []byte{1}, false, nil))
	q.Post(q.WriteWQE(qp.QPN, 1, []uint64{mr.Base + 1}, mr.RKey, []byte{2}, false, nil))
	if c := run("unacked writes"); c != (Completion{}) || mr.Buf[1] != 2 {
		t.Fatalf("unacked writes left %+v in the CQE, memory %v", c, mr.Buf[:2])
	}
	q.Post(q.WriteWQE(qp.QPN, 2, []uint64{mr.Base + 2}, mr.RKey, []byte{3}, true, nil))
	if c, want := run("acked write"), (Completion{Set: true, Syndrome: SynACK, QPN: qp.QPN, PSN: 2, MSN: qp.MSN}); c != want {
		t.Fatalf("acked write: CQE %+v, want %+v", c, want)
	}
	q.Post(q.WriteWQE(qp.QPN, 3, []uint64{mr.Base + 3}, mr.RKey, []byte{4}, true, nil))
	q.Post(q.WriteWQE(qp.QPN, 4, []uint64{mr.Base + 60}, mr.RKey, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false, nil))
	q.Post(q.WriteWQE(qp.QPN, 5, []uint64{mr.Base + 5}, mr.RKey, []byte{6}, true, nil))
	if c, want := run("NAK mid-list"), (Completion{Set: true, Syndrome: SynNAKAcc, QPN: qp.QPN, PSN: 4, MSN: qp.MSN}); c != want {
		t.Fatalf("NAK mid-list: CQE %+v, want %+v", c, want)
	}
	if mr.Buf[3] != 4 || mr.Buf[5] != 0 {
		t.Fatalf("memory %v: the verb before the NAK must land, the one after it must not", mr.Buf[:6])
	}
}

// TestPostCommitsInPlace: Post copies nothing — the entry a builder
// left at the queue's tail is the one the list holds, at the same
// address — and panics on any other slice: a copy of the entry, an
// entry built at another queue's tail, an entry already posted, an
// empty slice.
func TestPostCommitsInPlace(t *testing.T) {
	var q, other SendQueue
	vas := []uint64{0x10000000, 0x10000040}
	w := q.WriteWQE(0x11, 0, vas, 0x1000, []byte{1, 2, 3, 4}, false, nil)
	q.Post(w)
	if len(q.ends) != 1 || &q.arena[0] != &w[0] || !bytes.Equal(q.arena, w) {
		t.Fatal("Post did not commit the entry built at the tail in place")
	}
	// Building replaces an uncommitted entry: only the last is posted.
	q.FetchAddWQE(0x11, 2, vas, 0x1000, 1)
	w2 := q.FetchAddWQE(0x11, 2, vas[:1], 0x1000, 9)
	q.Post(w2)
	if len(q.ends) != 2 || &q.arena[len(w)] != &w2[0] || q.ends[1] != len(w)+len(w2) {
		t.Fatal("the second entry was not committed where it was built")
	}
	for _, c := range []struct {
		name string
		wqe  func() []byte
	}{
		{"copy", func() []byte { return bytes.Clone(q.WriteWQE(0x11, 3, vas, 0x1000, nil, false, nil)) }},
		{"other queue", func() []byte { return other.WriteWQE(0x11, 3, vas, 0x1000, nil, false, nil) }},
		{"posted twice", func() []byte { return w2 }},
		{"empty", func() []byte { return q.Tail(8)[:0] }},
	} {
		wqe := c.wqe()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Post accepted it", c.name)
				}
			}()
			q.Post(wqe)
		}()
	}
	if len(q.ends) != 2 {
		t.Fatalf("a refused Post changed the list: %d entries", len(q.ends))
	}
}

// TestMulticastEntryMatchesPerVerb is the table behind FuzzDeviceProcess
// for entries of several replicas: each case's post-list runs through
// Execute on one device and, replica by replica as RoCEv2 packets,
// through Process on a twin, and the two must agree on the completion,
// events, memory, DeviceStats and QP state. Each case also pins what
// the replicas did. Replicas have consecutive PSNs, so a PSN gap can
// open only before an entry's first replica; a duplicate FETCH&ADD the
// cache no longer holds NAKs mid-entry.
func TestMulticastEntryMatchesPerVerb(t *testing.T) {
	type verb struct {
		fa       bool
		psn      uint32
		offs     []uint64 // replica addresses, as offsets into the region
		data     []byte   // WRITE payload
		add      uint64   // FETCH&ADD operand
		imm, ack bool
	}
	for _, tc := range []struct {
		name  string
		start uint32   // the responder's first expected PSN
		setup [][]verb // lists run on both devices first
		list  []verb
		want  Completion // Set, Syndrome, PSN, Atomic, Orig; QPN and MSN are the QP's
		check func(t *testing.T, mem []byte, st DeviceStats)
	}{
		{
			name: "access fault at replica 2",
			list: []verb{
				{psn: 0, offs: []uint64{0, 8, 1020, 16}, data: []byte{1, 2, 3, 4, 5, 6, 7, 8}, imm: true},
				{psn: 4, offs: []uint64{32}, data: []byte{9}, ack: true},
			},
			want: Completion{Set: true, Syndrome: SynNAKAcc, PSN: 2},
			check: func(t *testing.T, mem []byte, st DeviceStats) {
				if mem[0] != 1 || mem[8] != 1 || mem[16] != 0 || mem[32] != 0 {
					t.Errorf("replicas 0 and 1 must land, replica 3 and the next entry must not: %v", mem[:40])
				}
				if st != (DeviceStats{Writes: 2, WriteLines: 2, AccessErrs: 1}) {
					t.Errorf("stats %+v", st)
				}
			},
		},
		{
			name:  "PSN gap before an entry",
			setup: [][]verb{{{psn: 0, offs: []uint64{0, 8}, data: []byte{1}}}},
			list: []verb{
				{psn: 2, offs: []uint64{16, 24, 32}, data: []byte{2}},
				{psn: 6, offs: []uint64{40, 48}, data: []byte{3}}, // PSN 5 lost
				{psn: 8, offs: []uint64{56}, data: []byte{4}, ack: true},
			},
			want: Completion{Set: true, Syndrome: SynNAKSeq, PSN: 5},
			check: func(t *testing.T, mem []byte, st DeviceStats) {
				if mem[32] != 2 || mem[40] != 0 || mem[56] != 0 || st.SeqErrors != 1 || st.Writes != 5 {
					t.Errorf("the entry before the gap must land whole, nothing after it: %v, %+v", mem[:64], st)
				}
			},
		},
		{
			name:  "duplicate replicas",
			setup: [][]verb{{{psn: 0, offs: []uint64{0, 8, 16}, data: []byte{1}}}},
			list: []verb{
				// PSNs 1 and 2 were executed: re-acknowledged, not rewritten.
				{psn: 1, offs: []uint64{8, 16, 24, 32}, data: []byte{7}, ack: true},
			},
			want: Completion{Set: true, Syndrome: SynACK, PSN: 4},
			check: func(t *testing.T, mem []byte, st DeviceStats) {
				if mem[8] != 1 || mem[16] != 1 || mem[24] != 7 || mem[32] != 7 || st.Duplicates != 2 || st.Writes != 5 {
					t.Errorf("duplicates rewritten or new replicas lost: %v, %+v", mem[:40], st)
				}
			},
		},
		{
			name: "FETCH&ADD cache",
			setup: [][]verb{{
				{fa: true, psn: 0, offs: []uint64{0, 8}, add: 5},
				{psn: 2, offs: []uint64{64}, data: []byte{1}},
			}},
			list: []verb{
				// PSN 1 is the cached atomic: answered from the cache with its
				// pre-add value; PSN 0 is not, and stops the list.
				{fa: true, psn: 1, offs: []uint64{8}, add: 5},
				{fa: true, psn: 0, offs: []uint64{0, 8}, add: 5},
			},
			want: Completion{Set: true, Syndrome: SynNAKSeq, PSN: 0},
			check: func(t *testing.T, mem []byte, st DeviceStats) {
				if binary.BigEndian.Uint64(mem) != 5 || binary.BigEndian.Uint64(mem[8:]) != 5 || st.FetchAdds != 2 || st.Duplicates != 2 {
					t.Errorf("a duplicate atomic re-executed: %v, %+v", mem[:16], st)
				}
			},
		},
		{
			name:  "PSN wrap inside an entry",
			start: 1<<24 - 2,
			list: []verb{
				{fa: true, psn: 1<<24 - 2, offs: []uint64{0, 8, 16, 24}, add: 3},
				{psn: 2, offs: []uint64{32, 40}, data: []byte{6}, imm: true, ack: true},
			},
			want: Completion{Set: true, Syndrome: SynACK, PSN: 3},
			check: func(t *testing.T, mem []byte, st DeviceStats) {
				if binary.BigEndian.Uint64(mem[24:]) != 3 || mem[40] != 6 || st != (DeviceStats{Writes: 2, WriteLines: 2, FetchAdds: 4}) {
					t.Errorf("replicas across the wrap: %v, %+v", mem[:48], st)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var devs [2]*Device
			var mrs [2]*MemoryRegion
			var qps [2]*ResponderQP
			for i := range devs {
				devs[i] = NewDevice()
				mrs[i] = devs[i].RegisterMemory(1024)
				qps[i] = devs[i].CreateQP(tc.start)
			}
			build := func(vs []verb) [][]byte {
				var wqes [][]byte
				for _, v := range vs {
					vas := make([]uint64, len(v.offs))
					for i, off := range v.offs {
						vas[i] = mrs[0].Base + off
					}
					q := new(SendQueue)
					if v.fa {
						wqes = append(wqes, q.FetchAddWQE(qps[0].QPN, v.psn, vas, mrs[0].RKey, v.add))
						continue
					}
					var imm *uint32
					if v.imm {
						imm = new(uint32)
						*imm = v.psn
					}
					wqes = append(wqes, q.WriteWQE(qps[0].QPN, v.psn, vas, mrs[0].RKey, v.data, v.ack, imm))
				}
				return wqes
			}
			var q SendQueue
			var c Completion
			for _, vs := range tc.setup {
				wqes := build(vs)
				postAll(&q, wqes)
				devs[0].Execute(&q, nil, &c)
				perVerbVerdict(devs[1], wqes)
			}
			wqes := build(tc.list)
			postAll(&q, wqes)
			evs, err := devs[0].Execute(&q, nil, &c)
			refC, refEvs, refErr := perVerbVerdict(devs[1], wqes)
			if err != nil || refErr != nil {
				t.Fatalf("post-list error %v, per verb %v", err, refErr)
			}
			if c != refC || !slices.Equal(evs, refEvs) {
				t.Fatalf("post-list answered %+v %v, per verb %+v %v", c, evs, refC, refEvs)
			}
			if devs[0].Stats != devs[1].Stats || !bytes.Equal(mrs[0].Buf, mrs[1].Buf) || *qps[0] != *qps[1] {
				t.Fatalf("post-list left stats %+v, per verb %+v (or memory / QP state differs)", devs[0].Stats, devs[1].Stats)
			}
			want := tc.want
			want.QPN, want.MSN = qps[0].QPN, qps[0].MSN
			if want.Atomic = c.Atomic; c.Atomic {
				want.Orig = c.Orig
			}
			if c != want {
				t.Fatalf("completion %+v, want %+v", c, want)
			}
			tc.check(t, mrs[0].Buf, devs[0].Stats)
		})
	}
}

// BenchmarkDeviceExecute is one doorbell of the kw_ingest shape: a
// post-list of 64 Key-Write entries at redundancy 2 (8-byte slot
// images at random 8-byte slots of a 32 MiB region, 4 Mi slots), built
// at the tail of a reused queue and executed. ns/verb divides by the 128
// replicas executed. In "random" the slots are cold, so cache misses
// dominate; in "pretouched" the window's addresses are hinted
// (PreTouch) before its entries are built, as stage B does, which
// leaves mostly the device's own cost.
func BenchmarkDeviceExecute(b *testing.B) {
	for _, pretouch := range []bool{false, true} {
		name := "random"
		if pretouch {
			name = "pretouched"
		}
		b.Run(name, func(b *testing.B) { benchmarkDeviceExecute(b, pretouch) })
	}
}

func benchmarkDeviceExecute(b *testing.B, pretouch bool) {
	const entries, replicas, slots, slotSize = 64, 2, 1 << 22, 8
	d := NewDevice()
	mr := d.RegisterMemory(slots * slotSize)
	qp := d.CreateQP(0)
	req := &Requester{DestQP: qp.QPN}
	var q SendQueue
	var c Completion
	var vas [entries * replicas]uint64
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var x uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range vas {
			x += 0x9e3779b97f4a7c15 // splitmix64
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			vas[r] = mr.Base + (z^z>>31)%slots*slotSize
		}
		if pretouch {
			d.PreTouch(mr.RKey, vas[:], slotSize)
		}
		for e := range entries {
			q.Post(q.WriteWQE(qp.QPN, req.NextPSNs(replicas), vas[e*replicas:(e+1)*replicas], mr.RKey, payload, false, nil))
		}
		if _, err := d.Execute(&q, nil, &c); err != nil {
			b.Fatal(err)
		}
	}
	if d.Stats.Writes != uint64(b.N*entries*replicas) {
		b.Fatalf("%d writes executed, want %d", d.Stats.Writes, b.N*entries*replicas)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries*replicas), "ns/verb")
}
