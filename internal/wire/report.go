package wire

import "fmt"

// Report is a fully parsed DTA report: the base header plus exactly one
// primitive sub-header. Data aliases the input buffer for Key-Write and
// Append reports; callers that retain it past the packet's lifetime must
// copy it.
type Report struct {
	Header       Header
	KeyWrite     KeyWrite
	Append       Append
	KeyIncrement KeyIncrement
	Postcard     Postcard
	Data         []byte
}

// MaxReportLen is an upper bound on a serialized report including
// Ethernet, IPv4 and UDP carriers.
const MaxReportLen = EthernetLen + IPv4Len + UDPLen + HeaderLen + KeyIncrementLen + MaxData

// StagedReport is a compact, fixed-size staging form of a Report that
// queues and pools can hold by value with no heap indirection: only the
// fields of the active primitive are kept, and the payload (whose slice
// in a Report normally aliases a transient packet buffer) is snapshotted
// into an inline array. At ~112 bytes it is well under half a full
// Report plus side buffer, which matters both for the per-report staging
// copy and for the resident size of deep shard queues.
type StagedReport struct {
	prim    Primitive
	flags   uint8
	red     uint8 // Key-Write / Key-Increment redundancy
	hop     uint8 // Postcarding
	pathLen uint8 // Postcarding
	dataLen int16 // -1 = nil payload (Key-Increment, Postcarding)
	listID  uint32
	value   uint32 // Postcarding hop value
	key     Key
	delta   uint64 // Key-Increment delta; an Append's recipient set
	buf     [MaxData]byte
}

// Stage copies the active fields of r (and up to MaxData bytes of its
// payload) into s. Payloads longer than MaxData — which no valid report
// carries — are truncated. Every field the active primitive does not
// own is zeroed: s is typically a recycled queue slot, and whatever its
// previous occupant left there would otherwise ride into the record's
// encoded (logged) form.
func (s *StagedReport) Stage(r *Report) {
	s.prim = r.Header.Primitive
	s.flags = r.Header.Flags
	if r.Data == nil {
		s.dataLen = -1
	} else {
		s.dataLen = int16(copy(s.buf[:], r.Data))
	}
	s.red, s.hop, s.pathLen = 0, 0, 0
	s.listID, s.value, s.delta = 0, 0, 0
	switch r.Header.Primitive {
	case PrimKeyWrite:
		s.red = r.KeyWrite.Redundancy
		s.key = r.KeyWrite.Key
	case PrimAppend:
		s.listID = r.Append.ListID
		s.key = Key{}
	case PrimKeyIncrement:
		s.red = r.KeyIncrement.Redundancy
		s.key = r.KeyIncrement.Key
		s.delta = r.KeyIncrement.Delta
	case PrimPostcarding:
		s.key = r.Postcard.Key
		s.hop = r.Postcard.Hop
		s.pathLen = r.Postcard.PathLen
		s.value = r.Postcard.Value
	default:
		s.key = Key{}
	}
}

// Primitive returns the staged report's primitive.
func (s *StagedReport) Primitive() Primitive { return s.prim }

// Flags returns the staged base-header flags.
func (s *StagedReport) Flags() uint8 { return s.flags }

// Payload returns the staged payload view (nil if the original report
// carried none). Valid only while s is.
func (s *StagedReport) Payload() []byte {
	if s.dataLen < 0 {
		return nil
	}
	return s.buf[:s.dataLen]
}

// KeyWriteArgs returns the Key-Write fields. The key pointer aliases s.
func (s *StagedReport) KeyWriteArgs() (key *Key, redundancy uint8) {
	return &s.key, s.red
}

// AppendArgs returns the Append list ID.
func (s *StagedReport) AppendArgs() (listID uint32) { return s.listID }

// SetRecipients stamps an Append with the collectors a replicated
// fan-out sent it to, as a set: bit i for collector i, which must be
// below 64. The set rides in the 8 bytes only Key-Increment uses, so the
// encoded and logged forms keep their layout. Other primitives are left
// as they are.
func (s *StagedReport) SetRecipients(collectors []int) {
	if s.prim != PrimAppend {
		return
	}
	var set uint64
	for _, c := range collectors {
		set |= 1 << uint(c)
	}
	s.delta = set
}

// Recipients returns an Append's recipient set: 0 when nothing stamped
// it (a single collector's record).
func (s *StagedReport) Recipients() uint64 { return s.delta }

// KeyIncrementArgs returns the Key-Increment fields. The key pointer
// aliases s.
func (s *StagedReport) KeyIncrementArgs() (key *Key, redundancy uint8, delta uint64) {
	return &s.key, s.red, s.delta
}

// PostcardArgs returns the Postcarding fields. The key pointer aliases s.
func (s *StagedReport) PostcardArgs() (key *Key, hop, pathLen uint8, value uint32) {
	return &s.key, s.hop, s.pathLen, s.value
}

// StagedFixedLen is the fixed (payload-less) portion of a StagedReport's
// serialised form (see EncodeTo): every active field of every primitive,
// at a fixed offset, so encode and decode are straight-line byte moves.
const StagedFixedLen = 1 + 1 + 1 + 1 + 1 + 1 + 2 + 4 + 4 + KeySize + 8

// MaxStagedEncodedLen bounds EncodeTo's output.
const MaxStagedEncodedLen = StagedFixedLen + MaxData

// EncodeTo serialises s into b — the WAL's record body — and returns the
// bytes written. The layout is the staged record itself (fixed fields at
// fixed offsets, payload appended), so encoding is a plain copy with no
// per-primitive branching and no allocation. b must hold StagedFixedLen
// bytes plus the payload (MaxStagedEncodedLen always suffices).
func (s *StagedReport) EncodeTo(b []byte) int {
	b[0] = byte(s.prim)
	b[1] = s.flags
	b[2] = s.red
	b[3] = s.hop
	b[4] = s.pathLen
	b[5] = 0 // reserved
	b[6] = byte(uint16(s.dataLen) >> 8)
	b[7] = byte(uint16(s.dataLen))
	b[8] = byte(s.listID >> 24)
	b[9] = byte(s.listID >> 16)
	b[10] = byte(s.listID >> 8)
	b[11] = byte(s.listID)
	b[12] = byte(s.value >> 24)
	b[13] = byte(s.value >> 16)
	b[14] = byte(s.value >> 8)
	b[15] = byte(s.value)
	copy(b[16:16+KeySize], s.key[:])
	off := 16 + KeySize
	b[off+0] = byte(s.delta >> 56)
	b[off+1] = byte(s.delta >> 48)
	b[off+2] = byte(s.delta >> 40)
	b[off+3] = byte(s.delta >> 32)
	b[off+4] = byte(s.delta >> 24)
	b[off+5] = byte(s.delta >> 16)
	b[off+6] = byte(s.delta >> 8)
	b[off+7] = byte(s.delta)
	n := StagedFixedLen
	if s.dataLen > 0 {
		n += copy(b[n:], s.buf[:s.dataLen])
	}
	return n
}

// StagedGroups is the number of 8-byte groups in the fixed image.
const StagedGroups = StagedFixedLen / 8

// EncodeGroupsTo is the zero-elided form of EncodeTo for log framing:
// it writes only the non-zero 8-byte groups of the fixed image
// (returning a bitmap of which), then the payload, in one pass — no
// intermediate 40-byte image, no rescan. Reassembling the present
// groups at their bitmap positions over zeros reproduces the EncodeTo
// image exactly. b must hold MaxStagedEncodedLen bytes.
func (s *StagedReport) EncodeGroupsTo(b []byte) (n int, bitmap uint8) {
	// Group 0 (primitive..dataLen) is never zero: every valid record
	// has a non-zero primitive.
	bitmap = 1
	b[0] = byte(s.prim)
	b[1] = s.flags
	b[2] = s.red
	b[3] = s.hop
	b[4] = s.pathLen
	b[5] = 0
	b[6] = byte(uint16(s.dataLen) >> 8)
	b[7] = byte(uint16(s.dataLen))
	n = 8
	if s.listID|s.value != 0 {
		bitmap |= 1 << 1
		b[n+0] = byte(s.listID >> 24)
		b[n+1] = byte(s.listID >> 16)
		b[n+2] = byte(s.listID >> 8)
		b[n+3] = byte(s.listID)
		b[n+4] = byte(s.value >> 24)
		b[n+5] = byte(s.value >> 16)
		b[n+6] = byte(s.value >> 8)
		b[n+7] = byte(s.value)
		n += 8
	}
	if [8]byte(s.key[:8]) != ([8]byte{}) {
		bitmap |= 1 << 2
		n += copy(b[n:], s.key[:8])
	}
	if [8]byte(s.key[8:]) != ([8]byte{}) {
		bitmap |= 1 << 3
		n += copy(b[n:], s.key[8:])
	}
	if s.delta != 0 {
		bitmap |= 1 << 4
		b[n+0] = byte(s.delta >> 56)
		b[n+1] = byte(s.delta >> 48)
		b[n+2] = byte(s.delta >> 40)
		b[n+3] = byte(s.delta >> 32)
		b[n+4] = byte(s.delta >> 24)
		b[n+5] = byte(s.delta >> 16)
		b[n+6] = byte(s.delta >> 8)
		b[n+7] = byte(s.delta)
		n += 8
	}
	if s.dataLen > 0 {
		n += copy(b[n:], s.buf[:s.dataLen])
	}
	return n, bitmap
}

// DecodeStaged parses an EncodeTo image back into s, returning the bytes
// consumed. It validates the framing (length, primitive, payload bounds)
// but not report semantics: records were validated on admission.
func DecodeStaged(b []byte, s *StagedReport) (int, error) {
	if len(b) < StagedFixedLen {
		return 0, fmt.Errorf("wire: staged record truncated at %dB", len(b))
	}
	prim := Primitive(b[0])
	switch prim {
	case PrimKeyWrite, PrimAppend, PrimKeyIncrement, PrimPostcarding:
	default:
		return 0, fmt.Errorf("wire: staged record has unknown primitive %v", prim)
	}
	dataLen := int16(uint16(b[6])<<8 | uint16(b[7]))
	if dataLen < -1 || dataLen > MaxData {
		return 0, fmt.Errorf("wire: staged record payload length %d out of range [-1,%d]", dataLen, MaxData)
	}
	n := StagedFixedLen
	if dataLen > 0 {
		n += int(dataLen)
		if len(b) < n {
			return 0, fmt.Errorf("wire: staged record payload truncated (%dB of %d)", len(b), n)
		}
	}
	s.prim = prim
	s.flags = b[1]
	s.red = b[2]
	s.hop = b[3]
	s.pathLen = b[4]
	s.dataLen = dataLen
	s.listID = uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	s.value = uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15])
	copy(s.key[:], b[16:16+KeySize])
	off := 16 + KeySize
	s.delta = uint64(b[off])<<56 | uint64(b[off+1])<<48 | uint64(b[off+2])<<40 | uint64(b[off+3])<<32 |
		uint64(b[off+4])<<24 | uint64(b[off+5])<<16 | uint64(b[off+6])<<8 | uint64(b[off+7])
	if dataLen > 0 {
		copy(s.buf[:dataLen], b[StagedFixedLen:n])
	}
	return n, nil
}

// DecodeReport parses the DTA portion of a packet (everything after UDP)
// into r. It is the translator's ingress parser.
func DecodeReport(b []byte, r *Report) error {
	n, err := r.Header.Decode(b)
	if err != nil {
		return err
	}
	body := b[n:]
	switch r.Header.Primitive {
	case PrimKeyWrite:
		r.Data, err = r.KeyWrite.Decode(body)
	case PrimAppend:
		r.Data, err = r.Append.Decode(body)
	case PrimKeyIncrement:
		_, err = r.KeyIncrement.Decode(body)
		r.Data = nil
	case PrimPostcarding:
		_, err = r.Postcard.Decode(body)
		r.Data = nil
	default:
		return fmt.Errorf("wire: unknown primitive %v", r.Header.Primitive)
	}
	return err
}

// Validate applies the same semantic checks DecodeReport enforces to an
// in-memory report, so the structured ingest path (which never
// serialises) rejects exactly what the wire path would.
func (r *Report) Validate() error {
	switch r.Header.Primitive {
	case PrimKeyWrite:
		if r.KeyWrite.Redundancy == 0 {
			return fmt.Errorf("wire: key-write redundancy 0")
		}
		if len(r.Data) > MaxData {
			return fmt.Errorf("wire: key-write data %dB exceeds max %d", len(r.Data), MaxData)
		}
	case PrimAppend:
		if len(r.Data) == 0 || len(r.Data) > MaxData {
			return fmt.Errorf("wire: append data %dB out of range (1,%d]", len(r.Data), MaxData)
		}
	case PrimKeyIncrement:
		if r.KeyIncrement.Redundancy == 0 {
			return fmt.Errorf("wire: key-increment redundancy 0")
		}
	case PrimPostcarding:
		if r.Postcard.PathLen != 0 && r.Postcard.Hop >= r.Postcard.PathLen {
			return fmt.Errorf("wire: postcard hop %d outside path of length %d", r.Postcard.Hop, r.Postcard.PathLen)
		}
	default:
		return fmt.Errorf("wire: unknown primitive %v", r.Header.Primitive)
	}
	return nil
}

// SerializeReport writes the DTA portion of r into b and returns the bytes
// written. r.Header.Primitive selects the sub-header; r.Data supplies the
// payload for Key-Write and Append.
func SerializeReport(b []byte, r *Report) (int, error) {
	n := r.Header.SerializeTo(b)
	switch r.Header.Primitive {
	case PrimKeyWrite:
		n += r.KeyWrite.SerializeTo(b[n:], r.Data)
	case PrimAppend:
		n += r.Append.SerializeTo(b[n:], r.Data)
	case PrimKeyIncrement:
		n += r.KeyIncrement.SerializeTo(b[n:])
	case PrimPostcarding:
		n += r.Postcard.SerializeTo(b[n:])
	default:
		return 0, fmt.Errorf("wire: unknown primitive %v", r.Header.Primitive)
	}
	return n, nil
}

// Frame carries the addressing a reporter stamps on an outgoing report.
type Frame struct {
	SrcMAC, DstMAC [6]byte
	SrcIP, DstIP   [4]byte
	SrcPort        uint16
	TTL            uint8
	IPID           uint16
}

// SerializeFrame writes a complete Ethernet/IPv4/UDP/DTA packet into b,
// returning the total length. b must have room for MaxReportLen bytes.
func SerializeFrame(b []byte, f *Frame, r *Report) (int, error) {
	const l2 = EthernetLen
	const l3 = EthernetLen + IPv4Len
	const l4 = EthernetLen + IPv4Len + UDPLen
	dtaLen, err := SerializeReport(b[l4:], r)
	if err != nil {
		return 0, err
	}
	eth := Ethernet{Dst: f.DstMAC, Src: f.SrcMAC, EtherType: EtherTypeIPv4}
	eth.SerializeTo(b)
	ttl := f.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip := IPv4{
		TotalLen: uint16(IPv4Len + UDPLen + dtaLen),
		ID:       f.IPID,
		TTL:      ttl,
		Protocol: ProtoUDP,
		Src:      f.SrcIP,
		Dst:      f.DstIP,
	}
	ip.SerializeTo(b[l2:])
	udp := UDP{SrcPort: f.SrcPort, DstPort: Port, Length: uint16(UDPLen + dtaLen)}
	udp.SerializeTo(b[l3:])
	return l4 + dtaLen, nil
}

// ParsedFrame is the result of decoding a full packet off the wire.
type ParsedFrame struct {
	Eth    Ethernet
	IP     IPv4
	UDP    UDP
	Report Report
	// IsDTA reports whether the packet was addressed to the DTA port.
	// Non-DTA packets are user traffic the translator forwards untouched.
	IsDTA bool
}

// DecodeFrame parses a complete Ethernet/IPv4/UDP packet. Packets not
// addressed to the DTA UDP port are classified as user traffic
// (IsDTA=false) without error.
func DecodeFrame(b []byte, p *ParsedFrame) error {
	n, err := p.Eth.Decode(b)
	if err != nil {
		return err
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		p.IsDTA = false
		return nil
	}
	m, err := p.IP.Decode(b[n:])
	if err != nil {
		return err
	}
	n += m
	if p.IP.Protocol != ProtoUDP {
		p.IsDTA = false
		return nil
	}
	m, err = p.UDP.Decode(b[n:])
	if err != nil {
		return err
	}
	n += m
	if p.UDP.DstPort != Port {
		p.IsDTA = false
		return nil
	}
	p.IsDTA = true
	return DecodeReport(b[n:], &p.Report)
}
