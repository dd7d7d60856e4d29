package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A work-queue entry (WQE) is one operation as a send queue holds it: a
// fixed header of native-endian fields, the remote address of each of
// its n replicas, and the inline WRITE payload. Replica i is the verb
// with PSN+i (mod 2^24) at address i, so an entry carries the N
// redundant copies of a multicast operation (§5.2) in one, and a single
// verb is an entry of one replica. It never leaves the process, so it
// carries no checksum; its length checks stand where a packet has its
// ICRC.
//
//	off size field
//	  0    1 opcode: RDMA_WRITE_ONLY, RDMA_WRITE_ONLY_WITH_IMMEDIATE
//	         (the immediate flag) or FETCH_ADD
//	  1    1 flags: bit 0 requests an acknowledgement (a FETCH&ADD
//	         always answers)
//	  2    1 replica count n, at least 1
//	  4    4 destination QPN (24 bits)
//	  8    4 PSN of replica 0 (24 bits)
//	 12    4 rkey
//	 16    4 immediate value
//	 20    4 payload length (0 for FETCH&ADD)
//	 24    8 FETCH&ADD operand
//	 32   8n remote virtual address of each replica
//	 32+8n m payload
const (
	wqeOp, wqeFlags, wqeReplicas, wqeQPN, wqePSN, wqeRKey, wqeImm, wqeLen, wqeAdd = 0, 1, 2, 4, 8, 12, 16, 20, 24
	wqeHdrLen                                                                     = 32

	wqeAckReq = 1
)

var ne = binary.NativeEndian

// ErrBadWQE reports a work-queue entry whose fields contradict each other.
var ErrBadWQE = errors.New("rdma: malformed work-queue entry")

// SendQueue is a post-list the requester owns: work-queue entries built,
// in order, at the tail of one reused arena. Tail hands out the room for
// the next entry (WriteWQE and FetchAddWQE build there), and Post
// commits it: nothing is copied. Building again before Post replaces
// the uncommitted entry. Device.Execute runs the committed entries and
// empties the queue.
type SendQueue struct {
	arena []byte
	ends  []int // entry i ends at arena[ends[i]]
}

// Tail returns room for an n-byte entry at the end of q, for the caller
// to build in and hand to Post. A full arena grows, keeping the
// committed entries; a queue that is reused stops growing.
func (q *SendQueue) Tail(n int) []byte {
	end := len(q.arena) + n
	if end > cap(q.arena) {
		arena := make([]byte, len(q.arena), max(2*cap(q.arena), end, 1024))
		copy(arena, q.arena)
		q.arena = arena
	}
	return q.arena[len(q.arena):end]
}

// Post commits wqe, the entry last built at q's tail, onto the list. It
// copies nothing, and it panics on any other slice.
func (q *SendQueue) Post(wqe []byte) {
	start, end := len(q.arena), len(q.arena)+len(wqe)
	if len(wqe) == 0 || end > cap(q.arena) || &q.arena[:end][start] != &wqe[0] {
		panic("rdma: Post of an entry not built at the send queue's tail")
	}
	q.arena = q.arena[:end]
	q.ends = append(q.ends, end)
}

// WriteWQE builds at q's tail an RDMA WRITE-only entry with one replica
// per address in vas (1 to 255), the first at PSN psn, and returns it
// for Post. A non-nil imm makes it a WRITE with immediate.
func (q *SendQueue) WriteWQE(destQP, psn uint32, vas []uint64, rkey uint32, payload []byte, ackReq bool, imm *uint32) []byte {
	w, p := q.Write(destQP, psn, vas, rkey, len(payload), ackReq, imm)
	copy(p, payload)
	return w
}

// Write is WriteWQE with an n-byte payload the caller writes in place:
// it returns the entry and its payload, whose bytes are not cleared.
func (q *SendQueue) Write(destQP, psn uint32, vas []uint64, rkey uint32, n int, ackReq bool, imm *uint32) (wqe, payload []byte) {
	w := q.wqeHeader(OpWriteOnly, destQP, psn, vas, rkey, n, ackReq)
	if imm != nil {
		w[wqeOp] = byte(OpWriteOnlyImm)
		ne.PutUint32(w[wqeImm:], *imm)
	}
	return w, w[wqeHdrLen+8*len(vas):]
}

// FetchAddWQE builds at q's tail an RDMA FETCH&ADD entry with one
// replica per address in vas, the first at PSN psn, and returns it for
// Post.
func (q *SendQueue) FetchAddWQE(destQP, psn uint32, vas []uint64, rkey uint32, add uint64) []byte {
	w := q.wqeHeader(OpFetchAdd, destQP, psn, vas, rkey, 0, true)
	ne.PutUint64(w[wqeAdd:], add)
	return w
}

func (q *SendQueue) wqeHeader(op Opcode, destQP, psn uint32, vas []uint64, rkey uint32, n int, ackReq bool) []byte {
	w := q.Tail(wqeHdrLen + 8*len(vas) + n)
	clear(w[:wqeHdrLen])
	w[wqeOp] = byte(op)
	if ackReq {
		w[wqeFlags] = wqeAckReq
	}
	w[wqeReplicas] = byte(len(vas))
	ne.PutUint32(w[wqeQPN:], destQP)
	ne.PutUint32(w[wqePSN:], psn)
	ne.PutUint32(w[wqeRKey:], rkey)
	ne.PutUint32(w[wqeLen:], uint32(n))
	dst := w[wqeHdrLen:]
	for _, va := range vas {
		ne.PutUint64(dst, va)
		dst = dst[8:]
	}
	return w
}

// checkWQE makes every check of entry b that DecodeWQE makes, with the
// same refusals, and returns how many replicas b carries.
func checkWQE(b []byte) (replicas int, err error) {
	if len(b) < wqeHdrLen {
		return 0, ErrTruncated
	}
	n := int(b[wqeReplicas])
	if n == 0 {
		return 0, ErrBadWQE
	}
	body := wqeHdrLen + 8*n
	if len(b) < body {
		return 0, ErrTruncated
	}
	if m := ne.Uint32(b[wqeLen:]); uint64(m) != uint64(len(b)-body) {
		return 0, fmt.Errorf("rdma: WQE payload %dB, length field %d", len(b)-body, m)
	}
	if ne.Uint32(b[wqeQPN:])|ne.Uint32(b[wqePSN:]) > psnMask {
		return 0, ErrBadWQE
	}
	switch Opcode(b[wqeOp]) {
	case OpWriteOnly, OpWriteOnlyImm:
	case OpFetchAdd:
		if len(b) != body {
			return 0, ErrBadWQE
		}
	default:
		return 0, ErrBadOpcode
	}
	return n, nil
}

// DecodeWQE reads a work-queue entry into p as its first replica (the
// same verb record DecodePacket fills; p.Payload aliases b) and returns
// how many replicas the entry carries. Replica moves p to another.
func DecodeWQE(b []byte, p *Packet) (replicas int, err error) {
	n, err := checkWQE(b)
	if err != nil {
		return 0, err
	}
	p.BTH = BTH{
		Opcode: Opcode(b[wqeOp]),
		DestQP: ne.Uint32(b[wqeQPN:]),
		AckReq: b[wqeFlags]&wqeAckReq != 0,
		PSN:    ne.Uint32(b[wqePSN:]),
	}
	p.HasImm, p.Payload = false, nil
	va, rkey := ne.Uint64(b[wqeHdrLen:]), ne.Uint32(b[wqeRKey:])
	switch p.BTH.Opcode {
	case OpWriteOnlyImm:
		p.Imm, p.HasImm = ne.Uint32(b[wqeImm:]), true
		fallthrough
	case OpWriteOnly:
		p.Payload = b[wqeHdrLen+8*n:]
		p.RETH = RETH{VA: va, RKey: rkey, Length: uint32(len(p.Payload))}
	case OpFetchAdd:
		p.BTH.AckReq = true
		p.AtomicETH = AtomicETH{VA: va, RKey: rkey, AddData: ne.Uint64(b[wqeAdd:])}
	}
	return n, nil
}

// Replica points p, decoded from entry b (DecodeWQE), at the entry's
// replica i: PSN+i and the i-th address.
func Replica(b []byte, i int, p *Packet) {
	p.BTH.PSN = (ne.Uint32(b[wqePSN:]) + uint32(i)) & psnMask
	va := ne.Uint64(b[wqeHdrLen+8*i:])
	if p.BTH.Opcode == OpFetchAdd {
		p.AtomicETH.VA = va
	} else {
		p.RETH.VA = va
	}
}

// Encode builds into buf the RoCEv2 packet a wire would carry for
// replica i of wqe: the edge codec between the work-queue form and the
// wire, one packet per replica.
func Encode(buf, wqe []byte, i int) ([]byte, error) {
	var p Packet
	n, err := DecodeWQE(wqe, &p)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("rdma: replica %d of a %d-replica WQE", i, n)
	}
	Replica(wqe, i, &p)
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
