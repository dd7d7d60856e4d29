package rdma

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWritePacketRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]byte, 0, 256)
	pkt := BuildWrite(buf, 0x12, 100, 0x10000040, 0x1000, payload, true, nil)
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpWriteOnly || p.BTH.DestQP != 0x12 || p.BTH.PSN != 100 || !p.BTH.AckReq {
		t.Errorf("BTH = %+v", p.BTH)
	}
	if p.RETH.VA != 0x10000040 || p.RETH.RKey != 0x1000 || p.RETH.Length != 8 {
		t.Errorf("RETH = %+v", p.RETH)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %v", p.Payload)
	}
}

func TestWriteWithImmediate(t *testing.T) {
	imm := uint32(0xfeedface)
	pkt := BuildWrite(nil, 9, 0, 0x10000000, 1, []byte{1}, false, &imm)
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		t.Fatal(err)
	}
	if !p.HasImm || p.Imm != imm {
		t.Errorf("imm = %v %#x", p.HasImm, p.Imm)
	}
	if p.BTH.Opcode != OpWriteOnlyImm {
		t.Errorf("opcode = %v", p.BTH.Opcode)
	}
}

func TestFetchAddRoundTrip(t *testing.T) {
	pkt := BuildFetchAdd(nil, 5, 77, 0x10000008, 0x1000, 42)
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpFetchAdd || p.AtomicETH.AddData != 42 || p.AtomicETH.VA != 0x10000008 {
		t.Errorf("decoded %+v", p)
	}
}

func TestICRCDetectsCorruption(t *testing.T) {
	pkt := BuildWrite(nil, 1, 2, 0x10000000, 3, []byte{9, 9, 9, 9}, false, nil)
	for i := range pkt {
		bad := append([]byte(nil), pkt...)
		bad[i] ^= 0x01
		var p Packet
		if err := DecodePacket(bad, &p); err == nil {
			t.Fatalf("bit flip at byte %d undetected", i)
		}
	}
}

// TestDecodePacketTruncated: every strict prefix of a WRITE, a WRITE with
// immediate and a FETCH&ADD is refused, as a packet and as a work-queue
// entry. A WQE has no checksum, so its length checks alone must reject a
// short one.
func TestDecodePacketTruncated(t *testing.T) {
	imm := uint32(0xabcd)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		name     string
		pkt, wqe []byte
	}{
		{"write", BuildWrite(nil, 1, 2, 0x10000000, 3, payload, false, nil), WriteWQE(nil, 1, 2, 0x10000000, 3, payload, false, nil)},
		{"write-imm", BuildWrite(nil, 1, 2, 0x10000000, 3, payload, true, &imm), WriteWQE(nil, 1, 2, 0x10000000, 3, payload, true, &imm)},
		{"fetchadd", BuildFetchAdd(nil, 1, 2, 0x10000008, 3, 42), FetchAddWQE(nil, 1, 2, 0x10000008, 3, 42)},
	} {
		var p Packet
		if err := DecodePacket(c.pkt, &p); err != nil {
			t.Fatalf("%s: whole packet refused: %v", c.name, err)
		}
		if err := DecodeWQE(c.wqe, &p); err != nil {
			t.Fatalf("%s: whole WQE refused: %v", c.name, err)
		}
		for n := 0; n < len(c.pkt); n++ {
			if DecodePacket(c.pkt[:n], &p) == nil {
				t.Errorf("%s: %d-byte prefix of a %d-byte packet accepted", c.name, n, len(c.pkt))
			}
		}
		for n := 0; n < len(c.wqe); n++ {
			if DecodeWQE(c.wqe[:n], &p) == nil {
				t.Errorf("%s: %d-byte prefix of a %d-byte WQE accepted", c.name, n, len(c.wqe))
			}
		}
	}
}

func TestPSNDelta(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int32
	}{
		{5, 5, 0},
		{6, 5, 1},
		{5, 6, -1},
		{0, psnMask, 1},
		{psnMask, 0, -1},
		{1 << 23, 0, -(1 << 23)},
	}
	for _, c := range cases {
		if got := psnDelta(c.a, c.b); got != c.want {
			t.Errorf("psnDelta(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func newConnectedDevice(t *testing.T, regionSize int) (*Device, *MemoryRegion, *ResponderQP) {
	t.Helper()
	d := NewDevice()
	mr := d.RegisterMemory(regionSize)
	qp := d.CreateQP(0)
	return d, mr, qp
}

func TestDeviceExecutesWrite(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 1024)
	payload := []byte{0xca, 0xfe, 0xba, 0xbe}
	pkt := BuildWrite(nil, qp.QPN, 0, mr.Base+16, mr.RKey, payload, true, nil)
	ack, ev, err := d.Process(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev != nil {
		t.Error("unexpected immediate event")
	}
	if !bytes.Equal(mr.Buf[16:20], payload) {
		t.Errorf("memory = %v", mr.Buf[16:20])
	}
	var a Packet
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatal(err)
	}
	if a.AETH.Syndrome != SynACK || a.BTH.PSN != 0 {
		t.Errorf("ack = %+v", a)
	}
	if d.Stats.Writes != 1 {
		t.Errorf("writes = %d", d.Stats.Writes)
	}
}

func TestDeviceImmediateEvent(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	imm := uint32(7)
	pkt := BuildWrite(nil, qp.QPN, 0, mr.Base, mr.RKey, []byte{1}, false, &imm)
	_, ev, err := d.Process(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Imm != 7 || ev.QPN != qp.QPN {
		t.Errorf("event = %+v", ev)
	}
}

func TestDeviceFetchAdd(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	binary.BigEndian.PutUint64(mr.Buf[8:16], 100)
	pkt := BuildFetchAdd(nil, qp.QPN, 0, mr.Base+8, mr.RKey, 5)
	ack, _, err := d.Process(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a Packet
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatal(err)
	}
	if a.BTH.Opcode != OpAtomicAck || a.OrigValue != 100 {
		t.Errorf("atomic ack = %+v", a)
	}
	if got := binary.BigEndian.Uint64(mr.Buf[8:16]); got != 105 {
		t.Errorf("memory = %d, want 105", got)
	}
}

func TestDeviceFetchAddUnaligned(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	pkt := BuildFetchAdd(nil, qp.QPN, 0, mr.Base+3, mr.RKey, 5)
	ack, _, err := d.Process(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a Packet
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatal(err)
	}
	if a.AETH.Syndrome != SynNAKAcc {
		t.Errorf("syndrome = %#x, want NAK-access", a.AETH.Syndrome)
	}
}

func TestDeviceBoundsChecks(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	cases := []struct {
		name string
		va   uint64
		n    int
	}{
		{"below base", mr.Base - 1, 4},
		{"past end", mr.Base + 61, 4},
		{"way past", mr.Base + 1<<30, 4},
	}
	for _, c := range cases {
		pkt := BuildWrite(nil, qp.QPN, qp.EPSN, c.va, mr.RKey, make([]byte, c.n), true, nil)
		ack, _, err := d.Process(pkt, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var a Packet
		if err := DecodePacket(ack, &a); err != nil {
			t.Fatal(err)
		}
		if a.AETH.Syndrome != SynNAKAcc {
			t.Errorf("%s: syndrome = %#x, want NAK-access", c.name, a.AETH.Syndrome)
		}
	}
	// A bad rkey also faults.
	pkt := BuildWrite(nil, qp.QPN, qp.EPSN, mr.Base, mr.RKey+999, []byte{1}, true, nil)
	ack, _, _ := d.Process(pkt, nil)
	var a Packet
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatal(err)
	}
	if a.AETH.Syndrome != SynNAKAcc {
		t.Error("bad rkey accepted")
	}
}

// TestPreTouchBoundsAndReadOnly: pre-touch applies the executing verbs'
// bounds check — the addresses TestDeviceBoundsChecks faults on are
// skipped, not loaded — loads from every address that passes it, ignores
// an unknown rkey, and never writes.
func TestPreTouchBoundsAndReadOnly(t *testing.T) {
	d, mr, _ := newConnectedDevice(t, 64)
	for i := range mr.Buf {
		mr.Buf[i] = byte(i + 1)
	}
	before := append([]byte(nil), mr.Buf...)
	vas := []uint64{
		mr.Base - 1, mr.Base + 61, mr.Base + 1<<30, // fault in execWrite(…, 4 bytes)
		mr.Base, mr.Base + 8, mr.Base + 60, // in bounds
	}
	d.PreTouch(mr.RKey, vas, 4)
	if want := before[0] + before[8] + before[60]; d.touched != want {
		t.Errorf("touched sum = %d, want %d: exactly the in-bounds bytes load", d.touched, want)
	}
	d.PreTouch(mr.RKey+999, vas, 4) // unknown region: nothing to touch
	d.PreTouch(mr.RKey, []uint64{mr.Base + 64}, 0)
	if !bytes.Equal(mr.Buf, before) {
		t.Error("pre-touch modified the region")
	}
	if d.Stats != (DeviceStats{}) {
		t.Errorf("pre-touch counted as work: %+v", d.Stats)
	}
}

func TestDeviceUnknownQP(t *testing.T) {
	d, mr, _ := newConnectedDevice(t, 64)
	pkt := BuildWrite(nil, 0xdead, 0, mr.Base, mr.RKey, []byte{1}, true, nil)
	if _, _, err := d.Process(pkt, nil); err != ErrUnknownQP {
		t.Errorf("err = %v, want ErrUnknownQP", err)
	}
}

func TestDeviceSequenceAndDuplicates(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 1024)
	mk := func(psn uint32, val byte) []byte {
		return BuildWrite(nil, qp.QPN, psn, mr.Base, mr.RKey, []byte{val}, true, nil)
	}
	// In-order PSN 0 and 1 execute.
	for psn := uint32(0); psn < 2; psn++ {
		if _, _, err := d.Process(mk(psn, byte(psn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// PSN 5 is out of order: NAK with expected PSN 2.
	ack, _, err := d.Process(mk(5, 99), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a Packet
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatal(err)
	}
	if a.AETH.Syndrome != SynNAKSeq || a.BTH.PSN != 2 {
		t.Errorf("NAK = %+v", a.AETH)
	}
	if mr.Buf[0] == 99 {
		t.Error("out-of-order write executed")
	}
	// Duplicate PSN 1 is re-ACKed without execution.
	before := d.Stats.Writes
	ack, _, err = d.Process(mk(1, 55), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatal(err)
	}
	if a.AETH.Syndrome != SynACK {
		t.Errorf("duplicate write syndrome = %#x", a.AETH.Syndrome)
	}
	if d.Stats.Writes != before {
		t.Error("duplicate write re-executed")
	}
	if d.Stats.Duplicates != 1 || d.Stats.SeqErrors != 1 {
		t.Errorf("stats = %+v", d.Stats)
	}
}

func TestDeviceDuplicateAtomicServedFromCache(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 64)
	pkt := BuildFetchAdd(nil, qp.QPN, 0, mr.Base, mr.RKey, 10)
	if _, _, err := d.Process(pkt, nil); err != nil {
		t.Fatal(err)
	}
	// Replay: must return the same original value (0) and not re-add.
	ack, _, err := d.Process(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a Packet
	if err := DecodePacket(ack, &a); err != nil {
		t.Fatal(err)
	}
	if a.BTH.Opcode != OpAtomicAck || a.OrigValue != 0 {
		t.Errorf("replayed atomic ack = %+v", a)
	}
	if got := binary.BigEndian.Uint64(mr.Buf[:8]); got != 10 {
		t.Errorf("memory = %d, want 10 (single execution)", got)
	}
}

func TestRequesterResyncOnNak(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 1024)
	req := &Requester{DestQP: qp.QPN}
	// Send PSN 0, then "lose" PSN 1 and send PSN 2.
	pkt := BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base, mr.RKey, []byte{1}, true, nil)
	ack, _, _ := d.Process(pkt, nil)
	req.HandleAck(completionOf(t, ack))
	_ = req.NextPSN() // lost packet
	pkt = BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base, mr.RKey, []byte{3}, true, nil)
	ack, _, _ = d.Process(pkt, nil)
	req.HandleAck(completionOf(t, ack))
	if req.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", req.Resyncs)
	}
	if req.NPSN != 1 {
		t.Fatalf("NPSN after resync = %d, want 1", req.NPSN)
	}
	// Retransmit from PSN 1: both writes now land.
	for _, v := range []byte{2, 3} {
		pkt = BuildWrite(nil, qp.QPN, req.NextPSN(), mr.Base+uint64(v), mr.RKey, []byte{v}, true, nil)
		ack, _, _ = d.Process(pkt, nil)
		req.HandleAck(completionOf(t, ack))
	}
	if mr.Buf[2] != 2 || mr.Buf[3] != 3 {
		t.Errorf("memory after resync = %v", mr.Buf[:4])
	}
}

func TestMemInstructionAccounting(t *testing.T) {
	d, mr, qp := newConnectedDevice(t, 4096)
	// 8B write: 1 line. 64B write: 1 line. 65B write: 2 lines.
	sizes := []int{8, 64, 65}
	want := uint64(1 + 1 + 2)
	psn := uint32(0)
	for _, s := range sizes {
		pkt := BuildWrite(nil, qp.QPN, psn, mr.Base, mr.RKey, make([]byte, s), true, nil)
		if _, _, err := d.Process(pkt, nil); err != nil {
			t.Fatal(err)
		}
		psn++
	}
	// A FETCH&ADD stores no line of its own: FetchAdds carries its two.
	if _, _, err := d.Process(BuildFetchAdd(nil, qp.QPN, psn, mr.Base, mr.RKey, 1), nil); err != nil {
		t.Fatal(err)
	}
	if d.Stats.WriteLines != want || d.Stats.FetchAdds != 1 {
		t.Errorf("write lines = %d, fetch-adds = %d, want %d, 1", d.Stats.WriteLines, d.Stats.FetchAdds, want)
	}
}

func TestGuardGapBetweenRegions(t *testing.T) {
	d := NewDevice()
	a := d.RegisterMemory(128)
	b := d.RegisterMemory(128)
	if a.Base+uint64(len(a.Buf)) >= b.Base {
		t.Error("regions adjacent; want guard gap")
	}
	qp := d.CreateQP(0)
	// A write that runs past region A must fault, not hit region B.
	pkt := BuildWrite(nil, qp.QPN, 0, a.Base+120, a.RKey, make([]byte, 16), true, nil)
	ack, _, _ := d.Process(pkt, nil)
	var p Packet
	if err := DecodePacket(ack, &p); err != nil {
		t.Fatal(err)
	}
	if p.AETH.Syndrome != SynNAKAcc {
		t.Error("overrun write did not fault")
	}
}

func TestCMReplyRoundTrip(t *testing.T) {
	in := &ConnectReply{
		ResponderQPN: 0x17,
		StartPSN:     12345,
		Regions: []RegionInfo{
			{Label: "keywrite", RKey: 1, VA: 0x1000, Length: 1 << 20, Slots: 1 << 17, SlotSize: 8},
			{Label: "append:0", RKey: 2, VA: 0x200000, Length: 1 << 16, Slots: 1 << 14, SlotSize: 4},
		},
	}
	out, err := UnmarshalReply(MarshalReply(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ResponderQPN != in.ResponderQPN || out.StartPSN != in.StartPSN {
		t.Errorf("header mismatch: %+v", out)
	}
	if len(out.Regions) != 2 || out.Regions[0] != in.Regions[0] || out.Regions[1] != in.Regions[1] {
		t.Errorf("regions mismatch: %+v", out.Regions)
	}
}

func TestCMUnmarshalGarbage(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	buf := make([]byte, 64)
	for i := 0; i < 5000; i++ {
		n := rnd.Intn(len(buf))
		rnd.Read(buf[:n])
		_, _ = UnmarshalReply(buf[:n]) // must not panic
	}
}

func TestConnectHandshake(t *testing.T) {
	d := NewDevice()
	mr := d.RegisterMemory(256)
	l := &Listener{
		Device: d,
		Regions: []RegionInfo{
			{Label: "keywrite", RKey: mr.RKey, VA: mr.Base, Length: uint64(len(mr.Buf)), Slots: 32, SlotSize: 8},
		},
	}
	req, regions, err := Connect(l, 500)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := FindRegion(regions, "keywrite")
	if !ok {
		t.Fatal("keywrite region not advertised")
	}
	if _, ok := FindRegion(regions, "nope"); ok {
		t.Error("found nonexistent region")
	}
	// The requester can immediately write through the handshake result.
	pkt := BuildWrite(nil, req.DestQP, req.NextPSN(), g.VA, g.RKey, []byte{42}, true, nil)
	if _, _, err := d.Process(pkt, nil); err != nil {
		t.Fatal(err)
	}
	if mr.Buf[0] != 42 {
		t.Error("post-handshake write failed")
	}
}

func TestNICModelCalibration(t *testing.T) {
	nic := BlueField2()
	// Non-batched 4B append: ~105M msgs/s (message-rate bound).
	if got := nic.ReportsPerSec(4, 1, 1, 4); got < 90e6 || got > 120e6 {
		t.Errorf("no-batch append = %.0f, want ~105M", got)
	}
	// Batch 16 (64B): line-rate bound, >1B reports/s.
	if got := nic.ReportsPerSec(64, 1, 16, 4); got < 1e9 {
		t.Errorf("batch-16 append = %.0f, want >1B", got)
	}
	// Key-Write N=2 halves N=1.
	n1 := nic.ReportsPerSec(8, 1, 1, 4)
	n2 := nic.ReportsPerSec(8, 2, 1, 4)
	if r := n1 / n2; r < 1.95 || r > 2.05 {
		t.Errorf("N=1/N=2 ratio = %v, want 2", r)
	}
	// Postcarding 32B chunks of 5 postcards: 400–500M postcards/s.
	if got := nic.ReportsPerSec(32, 1, 5, 4); got < 400e6 || got > 550e6 {
		t.Errorf("postcarding = %.0f, want ~480M", got)
	}
}

func TestNICModelQPDegradation(t *testing.T) {
	nic := BlueField2()
	few := nic.MessagesPerSec(8, 4)
	many := nic.MessagesPerSec(8, 1<<16)
	if many >= few {
		t.Error("no degradation with many QPs")
	}
	if ratio := few / many; ratio < 2 || ratio > 5.01 {
		t.Errorf("QP degradation ratio = %v, want within (2, 5]", ratio)
	}
	// Monotone non-increasing in QP count.
	prev := few
	for qps := 8; qps <= 1<<16; qps *= 2 {
		cur := nic.MessagesPerSec(8, qps)
		if cur > prev+1e-6 {
			t.Fatalf("throughput increased at %d QPs", qps)
		}
		prev = cur
	}
}

func TestNICModelLineRateScaling(t *testing.T) {
	nic := BlueField2()
	// Large payloads are line-rate bound: doubling payload should nearly
	// halve the message rate once far beyond the message-rate knee.
	a := nic.MessagesPerSec(1024, 4)
	b := nic.MessagesPerSec(2048, 4)
	if r := a / b; r < 1.7 || r > 2.2 {
		t.Errorf("payload doubling ratio = %v", r)
	}
	// Multi-NIC collectors scale linearly (§7).
	nic2 := nic
	nic2.Ports = 2
	if got := nic2.MessagesPerSec(8, 4) / nic.MessagesPerSec(8, 4); got != 2 {
		t.Errorf("2-port scaling = %v, want 2", got)
	}
}

func TestQPFactorProperties(t *testing.T) {
	nic := BlueField2()
	f := func(n uint16) bool {
		fac := nic.qpFactor(int(n))
		return fac > 0 && fac <= 1 && fac >= 1/nic.MaxQPPenalty-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDeviceProcessWrite(b *testing.B) {
	d := NewDevice()
	mr := d.RegisterMemory(1 << 20)
	qp := d.CreateQP(0)
	payload := make([]byte, 8)
	pktBuf := make([]byte, 0, 256)
	ackBuf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		psn := qp.EPSN
		va := mr.Base + uint64(i%(1<<17))*8
		pkt := BuildWrite(pktBuf, qp.QPN, psn, va, mr.RKey, payload, false, nil)
		if _, _, err := d.Process(pkt, ackBuf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildWrite(b *testing.B) {
	payload := make([]byte, 8)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildWrite(buf, 1, uint32(i), 0x10000000, 1, payload, false, nil)
	}
}
