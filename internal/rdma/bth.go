// Package rdma implements the subset of RoCEv2 (RDMA over Converged
// Ethernet v2) that Direct Telemetry Access relies on: reliable-connection
// RDMA WRITE, FETCH&ADD and their acknowledgements, together with
// registered memory regions, responder queue pairs with packet-sequence
// tracking, a connection-manager handshake, and a NIC performance model.
//
// The paper's translator crafts RoCEv2 packets inside a Tofino ASIC
// (§5.2) because they cross Ethernet to the collector NIC. Here the
// translator and the device share a process, so verbs travel between
// them as work-queue entries (WQEs, wqe.go): fixed-layout, native-endian
// descriptors with no checksum, one per operation with every multicast
// replica's address in it, built in place at the tail of the requester's
// SendQueue and run by Device.Execute, which writes one Completion (a
// CQE) in place; it runs each entry whole, reading it in place. The
// RoCEv2 format is the edge codec: Encode turns one replica of a WQE
// into the packet a wire would carry, and Device.Process decodes a
// packet, checks its ICRC and runs it through the same core as a
// one-replica WQE. Deviations from the
// InfiniBand specification are intentional and documented: ICRC is
// computed as CRC-32C over the full BTH+payload (the spec masks some
// mutable fields), and only the packet types DTA uses are implemented.
package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Port is the IANA UDP port for RoCEv2.
const Port = 4791

// Opcode is a BTH opcode. Values are the InfiniBand RC (reliable
// connection) opcodes.
type Opcode uint8

// The RC opcodes DTA uses.
const (
	OpWriteOnly    Opcode = 0x0a
	OpWriteOnlyImm Opcode = 0x0b
	OpAcknowledge  Opcode = 0x11
	OpAtomicAck    Opcode = 0x12
	OpFetchAdd     Opcode = 0x14
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpWriteOnly:
		return "RDMA_WRITE_ONLY"
	case OpWriteOnlyImm:
		return "RDMA_WRITE_ONLY_WITH_IMMEDIATE"
	case OpAcknowledge:
		return "ACKNOWLEDGE"
	case OpAtomicAck:
		return "ATOMIC_ACKNOWLEDGE"
	case OpFetchAdd:
		return "FETCH_ADD"
	default:
		return fmt.Sprintf("Opcode(%#x)", uint8(o))
	}
}

// Errors returned by the decoders and the responder.
var (
	ErrTruncated   = errors.New("rdma: truncated packet")
	ErrBadICRC     = errors.New("rdma: ICRC mismatch")
	ErrBadOpcode   = errors.New("rdma: unsupported opcode")
	ErrUnknownQP   = errors.New("rdma: unknown destination QP")
	ErrAccessFault = errors.New("rdma: remote access fault")
)

// Header lengths.
const (
	BTHLen       = 12
	RETHLen      = 16
	AtomicETHLen = 28
	AETHLen      = 4
	ImmLen       = 4
	ICRCLen      = 4
	// AtomicAckETHLen carries the original value returned by FETCH&ADD.
	AtomicAckETHLen = 8
)

// BTH is the RoCE base transport header.
type BTH struct {
	Opcode Opcode
	PadCnt uint8
	PKey   uint16
	DestQP uint32 // 24 bits
	AckReq bool
	PSN    uint32 // 24 bits
}

func (h *BTH) serializeTo(b []byte) {
	b[0] = uint8(h.Opcode)
	b[1] = (h.PadCnt & 3) << 4 // SE/M=0, TVer=0
	binary.BigEndian.PutUint16(b[2:4], h.PKey)
	b[4] = 0 // reserved (FECN/BECN)
	b[5] = byte(h.DestQP >> 16)
	b[6] = byte(h.DestQP >> 8)
	b[7] = byte(h.DestQP)
	var ack byte
	if h.AckReq {
		ack = 0x80
	}
	b[8] = ack
	b[9] = byte(h.PSN >> 16)
	b[10] = byte(h.PSN >> 8)
	b[11] = byte(h.PSN)
}

func (h *BTH) decode(b []byte) error {
	if len(b) < BTHLen {
		return ErrTruncated
	}
	h.Opcode = Opcode(b[0])
	h.PadCnt = b[1] >> 4 & 3
	h.PKey = binary.BigEndian.Uint16(b[2:4])
	h.DestQP = uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	h.AckReq = b[8]&0x80 != 0
	h.PSN = uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	return nil
}

// RETH is the RDMA extended transport header carried by WRITE requests.
type RETH struct {
	VA     uint64
	RKey   uint32
	Length uint32
}

func (h *RETH) serializeTo(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], h.VA)
	binary.BigEndian.PutUint32(b[8:12], h.RKey)
	binary.BigEndian.PutUint32(b[12:16], h.Length)
}

func (h *RETH) decode(b []byte) error {
	if len(b) < RETHLen {
		return ErrTruncated
	}
	h.VA = binary.BigEndian.Uint64(b[0:8])
	h.RKey = binary.BigEndian.Uint32(b[8:12])
	h.Length = binary.BigEndian.Uint32(b[12:16])
	return nil
}

// AtomicETH is the atomic extended transport header carried by FETCH&ADD.
// (Compare is unused by FETCH&ADD but part of the fixed layout.)
type AtomicETH struct {
	VA      uint64
	RKey    uint32
	AddData uint64
	Compare uint64
}

func (h *AtomicETH) serializeTo(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], h.VA)
	binary.BigEndian.PutUint32(b[8:12], h.RKey)
	binary.BigEndian.PutUint64(b[12:20], h.AddData)
	binary.BigEndian.PutUint64(b[20:28], h.Compare)
}

func (h *AtomicETH) decode(b []byte) error {
	if len(b) < AtomicETHLen {
		return ErrTruncated
	}
	h.VA = binary.BigEndian.Uint64(b[0:8])
	h.RKey = binary.BigEndian.Uint32(b[8:12])
	h.AddData = binary.BigEndian.Uint64(b[12:20])
	h.Compare = binary.BigEndian.Uint64(b[20:28])
	return nil
}

// AETH is the ACK extended transport header.
type AETH struct {
	Syndrome uint8
	MSN      uint32 // 24 bits
}

// AETH syndromes (simplified).
const (
	SynACK    = 0x00 // positive acknowledge
	SynNAKSeq = 0x60 // PSN sequence error: requester must resync
	SynNAKAcc = 0x63 // remote access error
)

func (h *AETH) serializeTo(b []byte) {
	b[0] = h.Syndrome
	b[1] = byte(h.MSN >> 16)
	b[2] = byte(h.MSN >> 8)
	b[3] = byte(h.MSN)
}

func (h *AETH) decode(b []byte) error {
	if len(b) < AETHLen {
		return ErrTruncated
	}
	h.Syndrome = b[0]
	h.MSN = uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	return nil
}

// Packet is a decoded RoCE packet (the portion after the UDP header).
type Packet struct {
	BTH       BTH
	RETH      RETH
	AtomicETH AtomicETH
	AETH      AETH
	Imm       uint32
	HasImm    bool
	// OrigValue is the pre-add value in an atomic acknowledge.
	OrigValue uint64
	// Payload aliases the input buffer for WRITE packets.
	Payload []byte
}

var icrcTable = crc32.MakeTable(crc32.Castagnoli)

// grow returns buf resized to n bytes, reusing its backing array when the
// capacity suffices. The builders below are called once per emitted RDMA
// message, so they must not allocate when handed an adequately sized
// caller-owned buffer; callers keep the returned slice to retain the
// capacity across calls.
func grow(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return append(buf[:0], make([]byte, n)...)
}

// stampICRC computes the (simplified) invariant CRC over b[:len(b)-4] and
// writes it into the trailing 4 bytes.
func stampICRC(b []byte) {
	body := b[:len(b)-ICRCLen]
	binary.BigEndian.PutUint32(b[len(b)-ICRCLen:], crc32.Checksum(body, icrcTable))
}

// checkICRC verifies and strips the trailing ICRC.
func checkICRC(b []byte) ([]byte, error) {
	if len(b) < ICRCLen {
		return nil, ErrTruncated
	}
	body, tail := b[:len(b)-ICRCLen], b[len(b)-ICRCLen:]
	want := binary.BigEndian.Uint32(tail)
	if crc32.Checksum(body, icrcTable) != want {
		return nil, ErrBadICRC
	}
	return body, nil
}

// BuildWrite serializes an RDMA WRITE-only request into buf and returns
// the packet. If imm is non-nil the WRITE carries immediate data, which
// raises a completion interrupt at the target host (DTA's immediate flag).
//
// The packet is crafted entirely inside buf's backing array when it fits
// (callers keep the returned slice so the capacity is reused); only an
// undersized buffer allocates.
func BuildWrite(buf []byte, destQP, psn uint32, va uint64, rkey uint32, payload []byte, ackReq bool, imm *uint32) []byte {
	bth := BTH{Opcode: OpWriteOnly, DestQP: destQP, AckReq: ackReq, PSN: psn}
	n := BTHLen + RETHLen + len(payload) + ICRCLen
	if imm != nil {
		bth.Opcode = OpWriteOnlyImm
		n += ImmLen
	}
	b := grow(buf, n)
	bth.serializeTo(b)
	reth := RETH{VA: va, RKey: rkey, Length: uint32(len(payload))}
	reth.serializeTo(b[BTHLen:])
	off := BTHLen + RETHLen
	if imm != nil {
		binary.BigEndian.PutUint32(b[off:], *imm)
		off += ImmLen
	}
	copy(b[off:], payload)
	stampICRC(b)
	return b
}

// RepatchPSNVA rewrites the PSN and the remote virtual address of a
// previously built WRITE or FETCH&ADD packet in place and restamps its
// ICRC: on a wire, a multicast replica differs from the first in nothing
// else. bench/dtaperf prices the edge codec with it.
func RepatchPSNVA(pkt []byte, psn uint32, va uint64) {
	pkt[9] = byte(psn >> 16)
	pkt[10] = byte(psn >> 8)
	pkt[11] = byte(psn)
	// RETH and AtomicETH both lead with the 8-byte VA right after BTH.
	binary.BigEndian.PutUint64(pkt[BTHLen:], va)
	stampICRC(pkt)
}

// BuildFetchAdd serializes an RDMA FETCH&ADD request into buf. Like
// BuildWrite it reuses buf's backing array when it fits.
func BuildFetchAdd(buf []byte, destQP, psn uint32, va uint64, rkey uint32, add uint64) []byte {
	bth := BTH{Opcode: OpFetchAdd, DestQP: destQP, AckReq: true, PSN: psn}
	b := grow(buf, BTHLen+AtomicETHLen+ICRCLen)
	bth.serializeTo(b)
	aeth := AtomicETH{VA: va, RKey: rkey, AddData: add}
	aeth.serializeTo(b[BTHLen:])
	stampICRC(b)
	return b
}

// BuildAck serializes an acknowledge with the given syndrome into buf,
// reusing its backing array when it fits. For atomic acknowledges
// origValue carries the pre-add value.
func BuildAck(buf []byte, destQP, psn uint32, syndrome uint8, msn uint32, atomic bool, origValue uint64) []byte {
	op := OpAcknowledge
	if atomic {
		op = OpAtomicAck
	}
	bth := BTH{Opcode: op, DestQP: destQP, PSN: psn}
	n := BTHLen + AETHLen + ICRCLen
	if atomic {
		n += AtomicAckETHLen
	}
	b := grow(buf, n)
	bth.serializeTo(b)
	a := AETH{Syndrome: syndrome, MSN: msn}
	a.serializeTo(b[BTHLen:])
	if atomic {
		binary.BigEndian.PutUint64(b[BTHLen+AETHLen:], origValue)
	}
	stampICRC(b)
	return b
}

// DecodePacket parses a RoCE packet, verifying the ICRC.
func DecodePacket(b []byte, p *Packet) error {
	body, err := checkICRC(b)
	if err != nil {
		return err
	}
	if err := p.BTH.decode(body); err != nil {
		return err
	}
	rest := body[BTHLen:]
	p.HasImm = false
	p.Payload = nil
	switch p.BTH.Opcode {
	case OpWriteOnly, OpWriteOnlyImm:
		if err := p.RETH.decode(rest); err != nil {
			return err
		}
		rest = rest[RETHLen:]
		if p.BTH.Opcode == OpWriteOnlyImm {
			if len(rest) < ImmLen {
				return ErrTruncated
			}
			p.Imm = binary.BigEndian.Uint32(rest)
			p.HasImm = true
			rest = rest[ImmLen:]
		}
		if uint32(len(rest)) != p.RETH.Length {
			return fmt.Errorf("rdma: WRITE payload %dB, RETH length %d", len(rest), p.RETH.Length)
		}
		p.Payload = rest
	case OpFetchAdd:
		if err := p.AtomicETH.decode(rest); err != nil {
			return err
		}
	case OpAcknowledge, OpAtomicAck:
		if err := p.AETH.decode(rest); err != nil {
			return err
		}
		if p.BTH.Opcode == OpAtomicAck {
			rest = rest[AETHLen:]
			if len(rest) < AtomicAckETHLen {
				return ErrTruncated
			}
			p.OrigValue = binary.BigEndian.Uint64(rest)
		}
	default:
		return ErrBadOpcode
	}
	return nil
}
