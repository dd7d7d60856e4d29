package costmodel

import (
	"testing"
	"testing/quick"
)

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
