package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A work-queue entry (WQE) is a verb as a send queue holds it: a fixed
// header of native-endian fields followed by the inline WRITE payload.
// It never leaves the process, so it carries no checksum; its length
// checks stand where a packet has its ICRC.
//
//	off size field
//	  0    1 opcode: RDMA_WRITE_ONLY, RDMA_WRITE_ONLY_WITH_IMMEDIATE
//	         (the immediate flag) or FETCH_ADD
//	  1    1 flags: bit 0 requests an acknowledgement (a FETCH&ADD
//	         always answers)
//	  4    4 destination QPN (24 bits)
//	  8    4 PSN (24 bits)
//	 12    4 rkey
//	 16    8 remote virtual address
//	 24    4 immediate value
//	 28    4 payload length (0 for FETCH&ADD)
//	 32    8 FETCH&ADD operand
//	 40    n payload
const (
	wqeOp, wqeFlags, wqeQPN, wqePSN, wqeRKey, wqeVA, wqeImm, wqeLen, wqeAdd = 0, 1, 4, 8, 12, 16, 24, 28, 32
	wqeHdrLen                                                               = 40

	wqeAckReq = 1
)

var ne = binary.NativeEndian

// ErrBadWQE reports a work-queue entry whose fields contradict each other.
var ErrBadWQE = errors.New("rdma: malformed work-queue entry")

// WriteWQE builds an RDMA WRITE-only work request into buf, reusing its
// backing array when it fits, as BuildWrite does. A non-nil imm makes it
// a WRITE with immediate.
func WriteWQE(buf []byte, destQP, psn uint32, va uint64, rkey uint32, payload []byte, ackReq bool, imm *uint32) []byte {
	w := wqeHeader(buf, OpWriteOnly, destQP, psn, va, rkey, len(payload), ackReq)
	if imm != nil {
		w[wqeOp] = byte(OpWriteOnlyImm)
		ne.PutUint32(w[wqeImm:], *imm)
	}
	copy(w[wqeHdrLen:], payload)
	return w
}

// FetchAddWQE builds an RDMA FETCH&ADD work request into buf.
func FetchAddWQE(buf []byte, destQP, psn uint32, va uint64, rkey uint32, add uint64) []byte {
	w := wqeHeader(buf, OpFetchAdd, destQP, psn, va, rkey, 0, true)
	ne.PutUint64(w[wqeAdd:], add)
	return w
}

func wqeHeader(buf []byte, op Opcode, destQP, psn uint32, va uint64, rkey uint32, n int, ackReq bool) []byte {
	w := grow(buf, wqeHdrLen+n)
	clear(w[:wqeHdrLen])
	w[wqeOp] = byte(op)
	if ackReq {
		w[wqeFlags] = wqeAckReq
	}
	ne.PutUint32(w[wqeQPN:], destQP)
	ne.PutUint32(w[wqeRKey:], rkey)
	ne.PutUint32(w[wqeLen:], uint32(n))
	PatchWQE(w, psn, va)
	return w
}

// PatchWQE rewrites a built WQE's PSN and remote address: two plain
// stores. Multicast replicas (§5.2) differ in nothing else, so the
// translator builds one WQE per operation and patches it per replica.
func PatchWQE(w []byte, psn uint32, va uint64) {
	ne.PutUint32(w[wqePSN:], psn)
	ne.PutUint64(w[wqeVA:], va)
}

// DecodeWQE reads a work-queue entry into p, the same verb record
// DecodePacket fills. p.Payload aliases b.
func DecodeWQE(b []byte, p *Packet) error {
	if len(b) < wqeHdrLen {
		return ErrTruncated
	}
	if n := ne.Uint32(b[wqeLen:]); uint64(n) != uint64(len(b)-wqeHdrLen) {
		return fmt.Errorf("rdma: WQE payload %dB, length field %d", len(b)-wqeHdrLen, n)
	}
	p.BTH = BTH{
		Opcode: Opcode(b[wqeOp]),
		DestQP: ne.Uint32(b[wqeQPN:]),
		AckReq: b[wqeFlags]&wqeAckReq != 0,
		PSN:    ne.Uint32(b[wqePSN:]),
	}
	if p.BTH.DestQP|p.BTH.PSN > psnMask {
		return ErrBadWQE
	}
	p.HasImm, p.Payload = false, nil
	va, rkey := ne.Uint64(b[wqeVA:]), ne.Uint32(b[wqeRKey:])
	switch p.BTH.Opcode {
	case OpWriteOnlyImm:
		p.Imm, p.HasImm = ne.Uint32(b[wqeImm:]), true
		fallthrough
	case OpWriteOnly:
		p.RETH = RETH{VA: va, RKey: rkey, Length: uint32(len(b) - wqeHdrLen)}
		p.Payload = b[wqeHdrLen:]
	case OpFetchAdd:
		if len(b) != wqeHdrLen {
			return ErrBadWQE
		}
		p.BTH.AckReq = true
		p.AtomicETH = AtomicETH{VA: va, RKey: rkey, AddData: ne.Uint64(b[wqeAdd:])}
	default:
		return ErrBadOpcode
	}
	return nil
}

// Encode builds into buf the RoCEv2 packet a wire would carry for wqe:
// the edge codec between the work-queue form and the wire.
func Encode(buf, wqe []byte) ([]byte, error) {
	var p Packet
	if err := DecodeWQE(wqe, &p); err != nil {
		return nil, err
	}
	h := &p.BTH
	if h.Opcode == OpFetchAdd {
		a := &p.AtomicETH
		return BuildFetchAdd(buf, h.DestQP, h.PSN, a.VA, a.RKey, a.AddData), nil
	}
	var imm *uint32
	if p.HasImm {
		imm = &p.Imm
	}
	return BuildWrite(buf, h.DestQP, h.PSN, p.RETH.VA, p.RETH.RKey, p.Payload, h.AckReq, imm), nil
}
