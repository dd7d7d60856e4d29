package rdma

import (
	"bytes"
	"testing"
)

// TestRepatchPSNVAMatchesRebuild pins the multicast fast path: building a
// request once and patching PSN+VA must produce byte-identical results
// to rebuilding from scratch, for WRITE (with and without immediate) and
// FETCH&ADD — as a work-queue entry (PatchWQE, what the translator posts
// per replica) and as a packet (RepatchPSNVA) — and the patched entry
// must encode to the patched packet.
func TestRepatchPSNVAMatchesRebuild(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	imm := uint32(0xdeadbeef)
	type build func(buf []byte, psn uint32, va uint64) []byte
	cases := []struct {
		name     string
		pkt, wqe build
	}{
		{"write", func(buf []byte, psn uint32, va uint64) []byte {
			return BuildWrite(buf, 0x11, psn, va, 0x1000, payload, false, nil)
		}, func(buf []byte, psn uint32, va uint64) []byte {
			return WriteWQE(buf, 0x11, psn, va, 0x1000, payload, false, nil)
		}},
		{"write-imm", func(buf []byte, psn uint32, va uint64) []byte {
			return BuildWrite(buf, 0x11, psn, va, 0x1000, payload, true, &imm)
		}, func(buf []byte, psn uint32, va uint64) []byte {
			return WriteWQE(buf, 0x11, psn, va, 0x1000, payload, true, &imm)
		}},
		{"fetchadd", func(buf []byte, psn uint32, va uint64) []byte {
			return BuildFetchAdd(buf, 0x11, psn, va, 0x1000, 7)
		}, func(buf []byte, psn uint32, va uint64) []byte {
			return FetchAddWQE(buf, 0x11, psn, va, 0x1000, 7)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pkt, wqe := c.pkt(nil, 100, 0x10000000), c.wqe(nil, 100, 0x10000000)
			for i, step := range []struct {
				psn uint32
				va  uint64
			}{{101, 0x10000040}, {102, 0x10facade}, {1<<24 - 1, 0x2fffffff}} {
				RepatchPSNVA(pkt, step.psn, step.va)
				PatchWQE(wqe, step.psn, step.va)
				want := c.pkt(nil, step.psn, step.va)
				if !bytes.Equal(pkt, want) {
					t.Fatalf("step %d: patched packet differs from rebuilt", i)
				}
				if !bytes.Equal(wqe, c.wqe(nil, step.psn, step.va)) {
					t.Fatalf("step %d: patched WQE differs from rebuilt", i)
				}
				if enc, err := Encode(nil, wqe); err != nil || !bytes.Equal(enc, want) {
					t.Fatalf("step %d: patched WQE encodes to %x (%v), want %x", i, enc, err, want)
				}
				var p Packet
				if err := DecodePacket(pkt, &p); err != nil {
					t.Fatalf("step %d: patched packet rejected: %v", i, err)
				}
				if p.BTH.PSN != step.psn {
					t.Fatalf("step %d: PSN = %d, want %d", i, p.BTH.PSN, step.psn)
				}
			}
		})
	}
}

// TestRepatchIncrementalICRCAllSizes pins the patch across payload sizes
// from the minimum WRITE to postcard-chunk scale, PSN/VA edge patterns
// and repeated patches of the same request: the packet RepatchPSNVA
// leaves (PSN, VA and a restamped ICRC) equals one rebuilt from scratch,
// and the WQE PatchWQE leaves encodes to it.
func TestRepatchIncrementalICRCAllSizes(t *testing.T) {
	for _, n := range []int{0, 1, 4, 8, 24, 63, 100, 256, 1024, 4000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		pkt := BuildWrite(nil, 0x33, 5, 0x1234, 0x77, payload, false, nil)
		wqe := WriteWQE(nil, 0x33, 5, 0x1234, 0x77, payload, false, nil)
		steps := []struct {
			psn uint32
			va  uint64
		}{
			{0, 0},
			{1<<24 - 1, ^uint64(0)},
			{0x800000, 0x8000000000000000},
			{6, 0x1234}, // back to (almost) the original fields
			{42, 0xdeadbeefcafef00d},
		}
		for i, s := range steps {
			RepatchPSNVA(pkt, s.psn, s.va)
			PatchWQE(wqe, s.psn, s.va)
			want := BuildWrite(nil, 0x33, s.psn, s.va, 0x77, payload, false, nil)
			if !bytes.Equal(pkt, want) {
				t.Fatalf("payload %dB step %d: repatched packet diverges from a rebuild", n, i)
			}
			if enc, err := Encode(nil, wqe); err != nil || !bytes.Equal(enc, want) {
				t.Fatalf("payload %dB step %d: patched WQE encodes differently (%v)", n, i, err)
			}
		}
	}
}

// TestBuildersReuseBuffer verifies the builders craft in place when the
// caller-owned buffer has capacity, and that repeated builds and patches
// do not allocate.
func TestBuildersReuseBuffer(t *testing.T) {
	buf := make([]byte, 0, 512)
	payload := []byte{1, 2, 3, 4}
	pkt := BuildWrite(buf, 1, 2, 3, 4, payload, false, nil)
	if &pkt[0] != &buf[:1][0] {
		t.Fatal("BuildWrite did not reuse the caller buffer")
	}
	wbuf := make([]byte, 0, 512)
	wqe := WriteWQE(wbuf, 1, 2, 3, 4, payload, false, nil)
	if &wqe[0] != &wbuf[:1][0] {
		t.Fatal("WriteWQE did not reuse the caller buffer")
	}
	imm := uint32(7)
	allocs := testing.AllocsPerRun(100, func() {
		pkt = BuildWrite(pkt, 1, 2, 3, 4, payload, false, nil)
		RepatchPSNVA(pkt, 5, 6)
		pkt = BuildFetchAdd(pkt, 1, 2, 3, 4, 5)
		pkt = BuildAck(pkt, 1, 2, SynACK, 3, true, 9)
		wqe = WriteWQE(wqe, 1, 2, 3, 4, payload, false, &imm)
		PatchWQE(wqe, 5, 6)
		wqe = FetchAddWQE(wqe, 1, 2, 3, 4, 5)
		PatchWQE(wqe, 7, 8)
	})
	if allocs != 0 {
		t.Fatalf("builders allocated %.1f times per run, want 0", allocs)
	}
}
