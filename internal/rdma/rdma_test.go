package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
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

// TestSendRefused: the collector runs no SEND verb, so a SEND-only
// packet at the edge is refused like any other unknown opcode.
func TestSendRefused(t *testing.T) {
	payload := []byte("metadata")
	pkt := make([]byte, BTHLen+len(payload)+ICRCLen)
	(&BTH{Opcode: 0x04, DestQP: 1, AckReq: true, PSN: 2}).serializeTo(pkt)
	copy(pkt[BTHLen:], payload)
	stampICRC(pkt)
	if _, _, err := NewDevice().Process(pkt, nil); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("SEND-only packet: err = %v, want ErrBadOpcode", err)
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

// TestInterleavedRegions runs WRITEs and FETCH&ADDs that hop between four
// regions of different sizes, in post-lists of one to eight verbs, and
// holds every byte of every region to a model of the verbs; an rkey just
// outside the registered range still NAKs with an access fault.
func TestInterleavedRegions(t *testing.T) {
	d := NewDevice()
	qp := d.CreateQP(0)
	req := &Requester{DestQP: qp.QPN}
	var mrs [4]*MemoryRegion
	var model [4][]byte
	for i, size := range []int{64, 4 << 10, 256, 32 << 10} {
		mrs[i], model[i] = d.RegisterMemory(size), make([]byte, size)
	}
	rng := rand.New(rand.NewSource(4))
	var q SendQueue
	for list := 0; list < 2000; list++ {
		for range 1 + rng.Intn(8) {
			r := rng.Intn(len(mrs))
			mr, mem := mrs[r], model[r]
			if rng.Intn(2) == 0 {
				payload := make([]byte, 1+rng.Intn(32))
				rng.Read(payload)
				off := rng.Intn(len(mem) - len(payload) + 1)
				q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mr.Base+uint64(off), mr.RKey, payload, false, nil))
				copy(mem[off:], payload)
			} else {
				add := rng.Uint64()
				off := 8 * rng.Intn(len(mem)/8)
				q.Post(FetchAddWQE(nil, qp.QPN, req.NextPSN(), mr.Base+uint64(off), mr.RKey, add))
				binary.BigEndian.PutUint64(mem[off:], binary.BigEndian.Uint64(mem[off:])+add)
			}
		}
		c, _, err := d.Execute(&q, nil)
		if err != nil || c.Syndrome != SynACK {
			t.Fatalf("list %d: completion syndrome %#x, %v", list, c.Syndrome, err)
		}
	}
	for i, mr := range mrs {
		if !bytes.Equal(mr.Buf, model[i]) {
			t.Fatalf("region %d (rkey %#x) differs from the verbs' model", i, mr.RKey)
		}
	}
	for _, rkey := range []uint32{mrs[0].RKey - 1, mrs[3].RKey + 1} {
		if _, ok := d.Region(rkey); ok {
			t.Fatalf("Region(%#x) found a region", rkey)
		}
		q.Post(WriteWQE(nil, qp.QPN, req.NextPSN(), mrs[0].Base, rkey, []byte{1}, true, nil))
		c, _, err := d.Execute(&q, nil)
		if err != nil || c.Syndrome != SynNAKAcc {
			t.Fatalf("rkey %#x: completion syndrome %#x, %v; want NAK-access", rkey, c.Syndrome, err)
		}
		req.HandleAck(c)
	}
}

// TestPreTouchBoundsAndReadOnly: pre-touch applies the executing verbs'
// bounds check — the addresses TestDeviceBoundsChecks faults on are
// skipped, not hinted — hints every address that passes it, ignores an
// unknown rkey, and changes nothing: no byte, tag or counter, on an
// untagged region and on a tagged (HA) one.
func TestPreTouchBoundsAndReadOnly(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		d, mr, _ := newConnectedDevice(t, 64)
		for i := range mr.Buf {
			mr.Buf[i] = byte(i + 1)
		}
		if tagged {
			mr.Tags = make([]atomic.Uint64, 1)
			mr.Tags[0].Store(7)
		}
		before := append([]byte(nil), mr.Buf...)
		vas := []uint64{
			mr.Base - 1, mr.Base + 61, mr.Base + 1<<30, // fault in execWrite(…, 4 bytes)
			mr.Base, mr.Base + 8, mr.Base + 60, // in bounds
		}
		d.PreTouch(mr.RKey, vas, 4)
		if d.hinted != 3 {
			t.Errorf("tagged=%v: hinted %d targets, want exactly the 3 in bounds", tagged, d.hinted)
		}
		d.PreTouch(mr.RKey+999, vas, 4) // unknown region: nothing to hint
		d.PreTouch(mr.RKey, []uint64{mr.Base + 64}, 0)
		if d.hinted != 3 {
			t.Errorf("tagged=%v: hinted %d targets after an unknown rkey and an out-of-bounds empty target, want 3", tagged, d.hinted)
		}
		if !bytes.Equal(mr.Buf, before) {
			t.Errorf("tagged=%v: pre-touch modified the region", tagged)
		}
		if tagged && mr.Tags[0].Load() != 7 {
			t.Errorf("pre-touch moved the tag to %d", mr.Tags[0].Load())
		}
		if d.Stats != (DeviceStats{}) {
			t.Errorf("tagged=%v: pre-touch counted as work: %+v", tagged, d.Stats)
		}
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
