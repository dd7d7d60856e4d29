package experiments

import (
	"fmt"
	"math/rand"

	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/rdma"
	"dta/internal/wire"
)

// Ablation studies for the design choices the paper argues in prose
// (listed under "Index" in paper/README.md). These have no
// single figure in the paper but quantify the arguments made in §4,
// §5.2 and §7.
func (r Runner) Ablation() *Table {
	t := &Table{
		ID:      "ablation",
		Title:   "Design-choice ablations",
		Columns: []string{"Study", "Setting", "Result"},
	}
	r.ablatePostcardingVsKW(t)
	r.ablateChecksumWidth(t)
	r.ablateQueuePairs(t)
	r.ablateKIAggregation(t)
	t.AddNote("empirical cells carry ±3σ binomial sampling noise at the configured trial count")
	return t
}

// ablatePostcardingVsKW reproduces §4's numeric argument: collecting a
// 5-hop path with Postcarding (32-bit XOR-encoded slots) versus one
// Key-Write per hop (64-bit checksum+value slots) — same memory, fewer
// writes, far lower wrong-output probability.
func (r Runner) ablatePostcardingVsKW(t *Table) {
	nic := rdma.BlueField2()
	// Writes per 5-hop path report.
	kwRate := nic.ReportsPerSec(keywrite.ChecksumSize+4, 5, 1, 4) // 5 writes per path
	pcRate := nic.ReportsPerSec(32, 1, 1, 4)                      // 1 chunk write per path
	t.AddRow("Postcarding vs KW/hop", "writes per path", fmt.Sprintf("KW: 5, Postcarding: 1 (%.1fx path rate)", pcRate/kwRate))

	// Wrong-output probability at the paper's parameters: |V|=2^18, B=5,
	// N=2, b=32, α=0.1.
	pcCfg := postcarding.Config{Chunks: 1 << 20, Hops: 5, SlotBits: 32,
		Values: make([]uint32, 1<<18)}
	pcWrong := pcCfg.WrongOutputBound(0.1, 2)
	// KW per hop: each of 5 hops can be wrong; union bound.
	kwWrong := 5 * keywrite.WrongOutputBound(0.1, 2, 32)
	t.AddRow("Postcarding vs KW/hop", "wrong-output bound",
		fmt.Sprintf("KW/hop: %.1e, Postcarding: %.1e (half the bits per slot)", kwWrong, pcWrong))
}

// ablateChecksumWidth sweeps the Key-Write checksum width b: narrower
// checksums save memory but admit measurable wrong outputs.
func (r Runner) ablateChecksumWidth(t *Table) {
	rnd := rand.New(rand.NewSource(r.P.Seed))
	trials := r.P.trials() * 5
	const slots = 1 << 10
	alpha := 1.0
	for _, b := range []int{8, 16, 32} {
		wrong := 0
		for trial := 0; trial < trials; trial++ {
			s, _ := keywrite.NewStore(keywrite.Config{Slots: slots, DataSize: 4, ChecksumBits: b})
			k := wire.KeyFromUint64(rnd.Uint64())
			s.Write(k, []byte{1, 2, 3, 4}, 2)
			for i := 0; i < slots; i++ {
				s.Write(wire.KeyFromUint64(rnd.Uint64()|1<<63), []byte{9, 9, 9, 9}, 2)
			}
			res, _ := s.Query(k, 2, 1)
			if res.Found && res.Data[0] != 1 {
				wrong++
			}
		}
		bound := keywrite.WrongOutputBound(alpha, 2, b)
		t.AddRow("Checksum width", fmt.Sprintf("b=%d", b),
			fmt.Sprintf("wrong-output %.3f%% (bound %.3f%%)", 100*float64(wrong)/float64(trials), 100*bound))
	}
}

// ablateQueuePairs quantifies why the translator terminates RDMA instead
// of letting every switch hold queue pairs ([15]'s up-to-5x collapse).
func (r Runner) ablateQueuePairs(t *Table) {
	nic := rdma.BlueField2()
	base := nic.MessagesPerSec(8, 4)
	for _, qps := range []int{4, 64, 1024, 16384} {
		rate := nic.MessagesPerSec(8, qps)
		t.AddRow("Queue pairs (no translator)", fmt.Sprintf("%d QPs", qps),
			fmt.Sprintf("%s msgs/s (%.2fx of few-QP rate)", fmtRate(rate), rate/base))
	}
	t.AddNote("one translator needs a handful of QPs for thousands of reporters; direct switch-to-collector RDMA needs one per switch")
}

// ablateKIAggregation measures the atomic-operation savings of
// translator-side Key-Increment pre-aggregation on a skewed workload.
func (r Runner) ablateKIAggregation(t *Table) {
	// Zipf-ish skew: key j chosen with weight 1/(j+1).
	rnd := rand.New(rand.NewSource(r.P.Seed))
	const keys = 1 << 10
	weights := make([]float64, keys)
	total := 0.0
	for j := range weights {
		weights[j] = 1 / float64(j+1)
		total += weights[j]
	}
	pick := func() uint64 {
		x := rnd.Float64() * total
		for j, w := range weights {
			x -= w
			if x <= 0 {
				return uint64(j)
			}
		}
		return keys - 1
	}
	n := 50000
	if r.P.Quick {
		n = 10000
	}
	for _, rows := range []int{0, 256, 4096} {
		var cache map[uint64]bool
		var rowOf []uint64
		emitted := 0
		if rows > 0 {
			cache = make(map[uint64]bool)
			rowOf = make([]uint64, rows)
		}
		for i := 0; i < n; i++ {
			k := pick()
			if rows == 0 {
				emitted++
				continue
			}
			slot := int(k) & (rows - 1)
			if cache[k] {
				continue // absorbed
			}
			if occupied := rowOf[slot]; occupied != 0 && occupied-1 != k {
				emitted++ // evict incumbent
				delete(cache, occupied-1)
			}
			rowOf[slot] = k + 1
			cache[k] = true
		}
		label := "disabled"
		if rows > 0 {
			label = fmt.Sprintf("%d rows", rows)
		}
		t.AddRow("KI pre-aggregation", label,
			fmt.Sprintf("%d fetch-adds for %d reports (%.1f%%)", emitted, n, 100*float64(emitted)/float64(n)))
	}
}
