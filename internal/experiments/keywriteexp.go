package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dta/internal/core/keywrite"
	"dta/internal/costmodel"
	"dta/internal/wire"
)

// Fig10 reproduces Fig. 10: Key-Write collection rate vs redundancy for
// 4B postcards and 20B path traces.
func (r Runner) Fig10() *Table {
	nic := costmodel.BlueField2()
	t := &Table{
		ID:      "fig10",
		Title:   "Key-Write collection rate vs redundancy (NIC model + local Go data path)",
		Columns: []string{"N", "INT postcards 4B", "Path tracing 20B", "Go path 4B (this machine)"},
	}
	// Local software rate: time the actual store write path.
	localRate := func(n int) float64 {
		s, _ := keywrite.NewStore(keywrite.Config{Slots: 1 << 20, DataSize: 4})
		data := []byte{1, 2, 3, 4}
		iters := 400000
		if r.P.Quick {
			iters = 50000
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			s.Write(wire.KeyFromUint64(uint64(i)), data, n)
		}
		return float64(iters) / time.Since(start).Seconds()
	}
	for n := 1; n <= 4; n++ {
		r4 := nic.ReportsPerSec(keywrite.ChecksumSize+4, float64(n), 1, 4)
		r20 := nic.ReportsPerSec(keywrite.ChecksumSize+20, float64(n), 1, 4)
		t.AddRow(fmt.Sprint(n), fmtRate(r4), fmtRate(r20), fmtRate(localRate(n)))
	}
	t.AddNote("paper: ~100M reports/s at N=1 falling as 1/N; 20B payloads track 4B until line rate")
	return t
}

// Fig11 reproduces Fig. 11: Key-Write query rate vs cores, with the
// per-query breakdown. The query path is executed for real, in parallel.
func (r Runner) Fig11() *Table {
	slots := uint64(1<<29) / uint64(r.P.scale()) / 8 // 4GiB of 8B slots, scaled
	if slots < 1<<16 {
		slots = 1 << 16
	}
	cfg := keywrite.Config{Slots: pow2Floor(slots), DataSize: 4}
	s, err := keywrite.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	loaded := int(cfg.Slots / 4)
	if r.P.Quick && loaded > 100000 {
		loaded = 100000
	}
	data := []byte{1, 2, 3, 4}
	for i := 0; i < loaded; i++ {
		s.Write(wire.KeyFromUint64(uint64(i)), data, 2)
	}

	maxCores := r.P.MaxCores
	if maxCores <= 0 {
		maxCores = runtime.GOMAXPROCS(0)
	}
	queries := 300000
	if r.P.Quick {
		queries = 30000
	}
	t := &Table{
		ID:      "fig11",
		Title:   "Key-Write query rate vs cores (real parallel execution, N=2)",
		Columns: []string{"Cores", "Queries/s"},
	}
	for cores := 1; cores <= maxCores; cores *= 2 {
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < cores; c++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(int64(seed)))
				for i := 0; i < queries/cores; i++ {
					k := wire.KeyFromUint64(uint64(rnd.Intn(loaded)))
					if _, err := s.Query(k, 2, 1); err != nil {
						panic(err)
					}
				}
			}(c + 1)
		}
		wg.Wait()
		rate := float64(queries) / time.Since(start).Seconds()
		t.AddRow(fmt.Sprint(cores), fmtRate(rate))
	}

	// Per-query breakdown: checksum+slot hashing vs memory reads, as
	// Fig. 11b splits Checksum vs Get Slot(s).
	idx := s.Indexer()
	iters := 2000000
	if r.P.Quick {
		iters = 200000
	}
	start := time.Now()
	var sink uint32
	for i := 0; i < iters; i++ {
		sink += idx.Checksum(wire.KeyFromUint64(uint64(i)))
	}
	csumNs := time.Since(start).Seconds() * 1e9 / float64(iters)
	start = time.Now()
	var sink2 uint64
	for i := 0; i < iters; i++ {
		sink2 += idx.Slot(0, wire.KeyFromUint64(uint64(i)))
		sink2 += idx.Slot(1, wire.KeyFromUint64(uint64(i)))
	}
	slotNs := time.Since(start).Seconds() * 1e9 / float64(iters)
	_ = sink
	_ = sink2
	t.AddNote("per-query breakdown (N=2): checksum %.0fns, slot hashing+reads %.0fns — hashing dominates, as Fig. 11b", csumNs, slotNs)
	t.AddNote("paper: 7.1M q/s with 4 cores at N=2, scaling near-linearly")
	return t
}

func pow2Floor(v uint64) uint64 {
	p := uint64(1)
	for p*2 <= v {
		p *= 2
	}
	return p
}

// Fig12 reproduces Fig. 12: query success rate vs load factor and N.
func (r Runner) Fig12() *Table {
	const slots = 1 << 12
	const tracked = 256
	ns := []int{1, 2, 4, 8}
	t := &Table{
		ID:      "fig12",
		Title:   "Key-Write query success vs load factor (simulated store; analytic estimate in brackets)",
		Columns: []string{"Load α", "N=1", "N=2", "N=4", "N=8", "Best N"},
	}
	rnd := rand.New(rand.NewSource(r.P.Seed))
	for _, alpha := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		row := []string{fmt.Sprintf("%.1f", alpha)}
		for _, n := range ns {
			s, _ := keywrite.NewStore(keywrite.Config{Slots: slots, DataSize: 4})
			// Write tracked keys, then α·M interfering keys.
			for i := 0; i < tracked; i++ {
				s.Write(wire.KeyFromUint64(uint64(i)), []byte{1, 1, 1, 1}, n)
			}
			others := int(alpha * slots)
			for i := 0; i < others; i++ {
				s.Write(wire.KeyFromUint64(rnd.Uint64()|1<<63), []byte{2, 2, 2, 2}, n)
			}
			ok := 0
			for i := 0; i < tracked; i++ {
				res, _ := s.Query(wire.KeyFromUint64(uint64(i)), n, 1)
				if res.Found && res.Data[0] == 1 {
					ok++
				}
			}
			got := float64(ok) / tracked
			est := keywrite.QuerySuccessEstimate(alpha, n)
			row = append(row, fmt.Sprintf("%.0f%% [%.0f%%]", got*100, est*100))
		}
		row = append(row, fmt.Sprintf("N=%d", keywrite.OptimalRedundancy(alpha, 8)))
		t.AddRow(row...)
	}
	t.AddNote("paper: N=2 is the broad sweet spot; very high load favours N=1")
	return t
}

// Fig13 reproduces Fig. 13: data longevity — queryability vs report age
// for several storage sizes (scaled by 1/Scale; load factors preserved).
func (r Runner) Fig13() *Table {
	scale := uint64(r.P.scale())
	slotSize := uint64(keywrite.ChecksumSize + 20) // 20B path data
	sizesGiB := []float64{1, 3, 10, 30}
	ages := []uint64{1e6, 10e6, 40e6, 100e6}
	if r.P.Quick {
		sizesGiB = []float64{1, 3}
		ages = []uint64{1e6, 10e6}
	}
	t := &Table{
		ID:    "fig13",
		Title: fmt.Sprintf("Key-Write longevity: 5-hop path queryability vs age (geometry scaled 1/%d)", scale),
	}
	t.Columns = []string{"Age (newer keys)"}
	for _, g := range sizesGiB {
		t.Columns = append(t.Columns, fmt.Sprintf("%.0fGiB", g))
	}

	maxAge := ages[len(ages)-1] / scale
	const sample = 400
	// Per size: write maxAge+sample keys; key i's age is total-i.
	results := make(map[float64]map[uint64]float64)
	for _, g := range sizesGiB {
		slots := pow2Floor(uint64(g*float64(uint64(1)<<30)) / slotSize / scale)
		s, err := keywrite.NewStore(keywrite.Config{Slots: slots, DataSize: 20})
		if err != nil {
			panic(err)
		}
		data := make([]byte, 20)
		total := maxAge + sample
		for i := uint64(0); i < total; i++ {
			binary.BigEndian.PutUint64(data, i)
			s.Write(wire.KeyFromUint64(i), data, 2)
		}
		results[g] = make(map[uint64]float64)
		for _, age := range ages {
			a := age / scale
			if a >= total {
				continue
			}
			ok := 0
			for j := uint64(0); j < sample; j++ {
				i := total - a - sample + j
				res, _ := s.Query(wire.KeyFromUint64(i), 2, 1)
				if res.Found && binary.BigEndian.Uint64(res.Data) == i {
					ok++
				}
			}
			results[g][age] = float64(ok) / sample
		}
	}
	for _, age := range ages {
		row := []string{fmtRate(float64(age))}
		for _, g := range sizesGiB {
			row = append(row, fmtPct(results[g][age]))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: 3GiB gives 99.3%% at 10M age falling to 44.5%% at 100M; 30GiB gives 99.99%% at 10M and 98.2%% at 100M")
	return t
}
