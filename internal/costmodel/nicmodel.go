package costmodel

import "math"

// NICModel projects the throughput of an RDMA NIC from first principles:
// a message-rate ceiling (the bottleneck the paper measures, §6.7/§7) and
// a line-rate ceiling determined by on-wire packet size. It also models
// the throughput collapse when many queue pairs are active, the effect
// (up to 5×, per FaRM [15]) that motivates DTA's translator design: many
// reporter switches funnel into few translator-owned connections.
type NICModel struct {
	// MessageRatePerSec is the peak verbs rate with few queue pairs.
	MessageRatePerSec float64
	// LineRateBitsPerSec is the port speed.
	LineRateBitsPerSec float64
	// QPKnee is the number of active QPs the NIC caches comfortably;
	// beyond it throughput degrades logarithmically to MaxQPPenalty.
	QPKnee int
	// MaxQPPenalty is the worst-case slowdown factor with very many QPs.
	MaxQPPenalty float64
	// Ports is the number of NICs in a multi-NIC collector (§7).
	Ports int
}

// BlueField2 models the paper testbed's 100 GbE NVIDIA BlueField-2 DPU.
// The message rate is calibrated so a non-batched 4 B Append sustains
// ~100 M reports/s and batches of 16 reach ~1.2 B reports/s (Fig. 15),
// and Key-Write with N=1 collects ~100–105 M reports/s (Fig. 10).
func BlueField2() NICModel {
	return NICModel{
		MessageRatePerSec:  105e6,
		LineRateBitsPerSec: 100e9,
		QPKnee:             32,
		MaxQPPenalty:       5,
		Ports:              1,
	}
}

// WireOverhead is the per-packet on-wire overhead of a RoCEv2 WRITE:
// preamble+SFD (8) + Ethernet (14) + IPv4 (20) + UDP (8) + BTH (12) +
// RETH (16) + ICRC (4) + FCS (4) + inter-frame gap (12).
const WireOverhead = 98

// MinFrameOnWire is the smallest legal on-wire occupancy of one frame
// (64 B frame + preamble + IFG).
const MinFrameOnWire = 84

// qpFactor returns the multiplicative throughput factor for n active QPs.
func (m NICModel) qpFactor(n int) float64 {
	if n <= m.QPKnee || m.QPKnee <= 0 {
		return 1
	}
	// Log-linear decay: each doubling past the knee costs a fixed share,
	// floored at 1/MaxQPPenalty.
	doublings := math.Log2(float64(n) / float64(m.QPKnee))
	f := 1 / (1 + doublings*(m.MaxQPPenalty-1)/6)
	floor := 1 / m.MaxQPPenalty
	if f < floor {
		f = floor
	}
	return f
}

// MessagesPerSec projects the sustainable verbs rate for packets with the
// given RDMA payload size, with qps active queue pairs.
func (m NICModel) MessagesPerSec(payloadBytes, qps int) float64 {
	onWire := float64(WireOverhead + payloadBytes)
	if onWire < MinFrameOnWire {
		onWire = MinFrameOnWire
	}
	lineRate := m.LineRateBitsPerSec / 8 / onWire
	msgRate := m.MessageRatePerSec * m.qpFactor(qps)
	rate := math.Min(lineRate, msgRate)
	ports := m.Ports
	if ports < 1 {
		ports = 1
	}
	return rate * float64(ports)
}

// ReportsPerSec projects telemetry collection throughput when each DTA
// report costs msgsPerReport verbs (Key-Write redundancy N) and each verb
// carries reportsPerMsg reports (Append batching, Postcarding chunks).
// Exactly one of the two is normally >1.
func (m NICModel) ReportsPerSec(payloadBytes int, msgsPerReport float64, reportsPerMsg float64, qps int) float64 {
	if msgsPerReport <= 0 {
		msgsPerReport = 1
	}
	if reportsPerMsg <= 0 {
		reportsPerMsg = 1
	}
	return m.MessagesPerSec(payloadBytes, qps) / msgsPerReport * reportsPerMsg
}
