// Package reporter implements the DTA reporter: the data-plane logic a
// telemetry-generating switch adds to export reports through DTA (§5.1).
//
// A reporter does almost nothing — that is the point. It encapsulates the
// monitoring system's telemetry payload in UDP plus the two DTA headers
// and forwards it to the collector's translator; all RDMA complexity
// stays at the translator, which is why Fig. 9 shows DTA's reporter
// footprint matching plain UDP and halving an RDMA-generating design.
package reporter

import (
	"fmt"

	"dta/internal/wire"
)

// Config addresses a reporter.
type Config struct {
	// SwitchID identifies this reporter.
	SwitchID uint32
	// SrcMAC/SrcIP stamp outgoing frames.
	SrcMAC [6]byte
	SrcIP  [4]byte
	// CollectorMAC/IP address the translator's collector.
	CollectorMAC [6]byte
	CollectorIP  [4]byte
	// SrcPort is the UDP source port (entropy for ECMP).
	SrcPort uint16
}

// Reporter crafts DTA frames in place.
type Reporter struct {
	cfg   Config
	frame wire.Frame
	ipID  uint16
	// Sent counts emitted reports.
	Sent uint64
}

// New builds a reporter.
func New(cfg Config) *Reporter {
	return &Reporter{
		cfg: cfg,
		frame: wire.Frame{
			SrcMAC:  cfg.SrcMAC,
			DstMAC:  cfg.CollectorMAC,
			SrcIP:   cfg.SrcIP,
			DstIP:   cfg.CollectorIP,
			SrcPort: cfg.SrcPort,
		},
	}
}

// Encapsulate serialises one DTA report into buf as a full
// Ethernet/IPv4/UDP frame and returns its length. buf must hold
// wire.MaxReportLen bytes.
func (r *Reporter) Encapsulate(buf []byte, rep *wire.Report) (int, error) {
	r.ipID++
	r.frame.IPID = r.ipID
	n, err := wire.SerializeFrame(buf, &r.frame, rep)
	if err != nil {
		return 0, fmt.Errorf("reporter %d: %w", r.cfg.SwitchID, err)
	}
	r.Sent++
	return n, nil
}

// KeyWrite crafts a Key-Write report frame.
func (r *Reporter) KeyWrite(buf []byte, key wire.Key, data []byte, redundancy uint8, immediate bool) (int, error) {
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite, Flags: flags(immediate)},
		KeyWrite: wire.KeyWrite{Redundancy: redundancy, Key: key},
		Data:     data,
	}
	return r.Encapsulate(buf, &rep)
}

// Append crafts an Append report frame.
func (r *Reporter) Append(buf []byte, listID uint32, data []byte, immediate bool) (int, error) {
	rep := wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend, Flags: flags(immediate)},
		Append: wire.Append{ListID: listID},
		Data:   data,
	}
	return r.Encapsulate(buf, &rep)
}

// KeyIncrement crafts a Key-Increment report frame.
func (r *Reporter) KeyIncrement(buf []byte, key wire.Key, delta uint64, redundancy uint8) (int, error) {
	rep := wire.Report{
		Header:       wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
		KeyIncrement: wire.KeyIncrement{Redundancy: redundancy, Key: key, Delta: delta},
	}
	return r.Encapsulate(buf, &rep)
}

// Postcard crafts a Postcarding report frame carrying this reporter's
// switch ID as the hop value (path tracing).
func (r *Reporter) Postcard(buf []byte, key wire.Key, hop, pathLen uint8) (int, error) {
	return r.PostcardValue(buf, key, hop, pathLen, r.cfg.SwitchID)
}

// PostcardValue crafts a Postcarding report frame carrying an arbitrary
// hop value (e.g. per-hop queueing latency for path measurements).
func (r *Reporter) PostcardValue(buf []byte, key wire.Key, hop, pathLen uint8, value uint32) (int, error) {
	rep := wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
		Postcard: wire.Postcard{
			Key: key, Hop: hop, PathLen: pathLen, Value: value,
		},
	}
	return r.Encapsulate(buf, &rep)
}

// Sender puts a reporter in front of a frame edge: each call encodes
// one report into a full frame and hands it to Send, which decodes it
// on the receiving side. It has the call shape of the in-process
// reporter handles, so one workload can drive either.
type Sender struct {
	Rep  *Reporter
	Send func(frame []byte) error
	buf  [wire.MaxReportLen]byte
}

func (s *Sender) send(n int, err error) error {
	if err != nil {
		return err
	}
	return s.Send(s.buf[:n])
}

// KeyWrite sends a Key-Write frame.
func (s *Sender) KeyWrite(key wire.Key, data []byte, n int) error {
	return s.send(s.Rep.KeyWrite(s.buf[:], key, data, uint8(n), false))
}

// Increment sends a Key-Increment frame.
func (s *Sender) Increment(key wire.Key, delta uint64, n int) error {
	return s.send(s.Rep.KeyIncrement(s.buf[:], key, delta, uint8(n)))
}

// Postcard sends a Postcarding frame carrying the switch ID.
func (s *Sender) Postcard(key wire.Key, hop, pathLen int) error {
	return s.send(s.Rep.Postcard(s.buf[:], key, uint8(hop), uint8(pathLen)))
}

// Append sends an Append frame.
func (s *Sender) Append(list uint32, data []byte) error {
	return s.send(s.Rep.Append(s.buf[:], list, data, false))
}

func flags(immediate bool) uint8 {
	if immediate {
		return wire.FlagImmediate
	}
	return 0
}
