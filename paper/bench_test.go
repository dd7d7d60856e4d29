// Benchmarks mapping to the paper's tables and figures. Each benchmark
// exercises the real data path behind the corresponding result; dtabench
// combines the same paths with the hardware models to print paper-style
// numbers. This module's README.md indexes both by table and figure.
package paper_test

import (
	"fmt"
	"testing"

	"dta"
	"dta/internal/baseline"
	"dta/internal/baseline/btrdb"
	"dta/internal/baseline/cuckoo"
	"dta/internal/baseline/intcollector"
	"dta/internal/baseline/multilog"
	"dta/internal/telemetry/inttel"
	"dta/internal/telemetry/marple"
	"dta/internal/telemetry/netseer"
	"dta/internal/trace"
	"dta/internal/wire"
)

// --- Table 1: per-switch report generation ------------------------------

func BenchmarkTable1_INTPostcardGeneration(b *testing.B) {
	g, _ := trace.NewGenerator(trace.DefaultConfig())
	paths, _ := inttel.NewPathModel(1<<14, 3, 5)
	sampler, _ := inttel.NewSampler(1, 200)
	src := &inttel.PostcardSource{Paths: paths, Sampler: sampler}
	var buf []wire.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := g.Next()
		buf = src.Reports(&p, buf[:0])
	}
}

func BenchmarkTable1_MarpleFlowletQuery(b *testing.B) {
	g, _ := trace.NewGenerator(trace.DefaultConfig())
	q := marple.NewFlowletSizes(0, 8)
	var buf []wire.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := g.Next()
		buf = q.Process(&p, buf[:0])
	}
}

func BenchmarkTable1_NetSeerLossEvents(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.LossRate = 0.01
	g, _ := trace.NewGenerator(cfg)
	q := &netseer.LossEvents{ListID: 0}
	var buf []wire.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := g.Next()
		buf = q.Process(&p, buf[:0])
	}
}

// --- Fig. 2 / Fig. 7a: CPU baseline ingestion ----------------------------

func baselineReports(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		r := baseline.Report{
			SrcIP: [4]byte{10, 0, byte(i >> 8), byte(i)}, DstIP: [4]byte{10, 1, 0, 1},
			SrcPort: uint16(i), DstPort: 443, Proto: 6,
			SwitchID: uint32(i % 512), Value: uint32(i), TimestampNs: uint64(i) * 100,
		}
		buf := make([]byte, baseline.ReportSize)
		r.Encode(buf)
		out[i] = buf
	}
	return out
}

func benchCollector(b *testing.B, c baseline.Collector) {
	reports := baselineReports(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := reports[i%len(reports)]
		// Keep timestamps monotonic across recycled reports: collectors
		// with time-ordered structures otherwise degenerate unrealistically.
		buf[22] = byte(i >> 24)
		buf[23] = byte(i >> 16)
		buf[24] = byte(i >> 8)
		buf[25] = byte(i)
		if err := c.Ingest(buf); err != nil {
			b.Fatal(err)
		}
	}
	pr := c.Counters().PerReport()
	b.ReportMetric(pr.TotalCycles(), "modelcycles/report")
	b.ReportMetric(pr.TotalMemOps(), "meminstr/report")
}

func BenchmarkFig2a_MultiLogIngest(b *testing.B)     { benchCollector(b, multilog.New(1<<20)) }
func BenchmarkFig2a_CuckooIngest(b *testing.B)       { benchCollector(b, cuckoo.New(1<<18)) }
func BenchmarkFig7a_INTCollectorIngest(b *testing.B) { benchCollector(b, intcollector.New(1<<16, 0)) }
func BenchmarkFig7a_BTrDBIngest(b *testing.B)        { benchCollector(b, btrdb.New(1e6)) }

// --- Fig. 7a / Fig. 10 / Fig. 15: DTA end-to-end paths -------------------

func fullSystem(b *testing.B, batch int) *dta.System {
	b.Helper()
	vals := make([]uint32, 1024)
	for i := range vals {
		vals[i] = uint32(i + 1)
	}
	sys, err := dta.New(dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 20, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 18},
		Postcarding:  &dta.PostcardingOptions{Chunks: 1 << 16, Hops: 5, Values: vals},
		Append:       &dta.AppendOptions{Lists: 8, EntriesPerList: 1 << 16, EntrySize: 4, Batch: batch},
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchKeyWriteN(b *testing.B, n int) {
	sys := fullSystem(b, 16)
	rep := sys.Reporter(1)
	data := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sys.Stats().MemInstrPerReport, "meminstr/report")
}

// Fig. 10: Key-Write collection vs redundancy (full frame + RDMA path).
func BenchmarkFig10_KeyWriteN1(b *testing.B) { benchKeyWriteN(b, 1) }
func BenchmarkFig10_KeyWriteN2(b *testing.B) { benchKeyWriteN(b, 2) }
func BenchmarkFig10_KeyWriteN4(b *testing.B) { benchKeyWriteN(b, 4) }

// Fig. 7a/Fig. 14: Postcarding end-to-end (5 postcards per flow).
func BenchmarkFig14_PostcardingPipeline(b *testing.B) {
	sys := fullSystem(b, 16)
	rep := sys.Reporter(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow := dta.KeyFromUint64(uint64(i / 5))
		if err := rep.Postcard(flow, i%5, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 15: Append vs batch size (full frame + RDMA path).
func benchAppendBatch(b *testing.B, batch int) {
	sys := fullSystem(b, batch)
	rep := sys.Reporter(1)
	e := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.Append(uint32(i&7), e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sys.Stats().MemInstrPerReport, "meminstr/report")
}

func BenchmarkFig15_AppendBatch1(b *testing.B)  { benchAppendBatch(b, 1) }
func BenchmarkFig15_AppendBatch4(b *testing.B)  { benchAppendBatch(b, 4) }
func BenchmarkFig15_AppendBatch16(b *testing.B) { benchAppendBatch(b, 16) }

// Key-Increment end-to-end (Table 2 workloads: TurboFlow, host counters).
func BenchmarkKeyIncrementN2(b *testing.B) {
	sys := fullSystem(b, 16)
	rep := sys.Reporter(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.Increment(dta.KeyFromUint64(uint64(i%4096)), 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 11: Key-Write query speed --------------------------------------

func BenchmarkFig11_KeyWriteQueryN2(b *testing.B) {
	sys := fullSystem(b, 16)
	rep := sys.Reporter(1)
	const loaded = 1 << 16
	for i := 0; i < loaded; i++ {
		rep.KeyWrite(dta.KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.LookupValue(dta.KeyFromUint64(uint64(i%loaded)), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 11 parallel scaling: run with -cpu 1,2,4,8.
func BenchmarkFig11_KeyWriteQueryParallel(b *testing.B) {
	sys := fullSystem(b, 16)
	rep := sys.Reporter(1)
	const loaded = 1 << 16
	for i := 0; i < loaded; i++ {
		rep.KeyWrite(dta.KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 2)
	}
	host := sys.Host()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := host.QueryKeyWrite(dta.KeyFromUint64(uint64(i%loaded)), 2, 1); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// --- Fig. 16: Append polling ---------------------------------------------

func BenchmarkFig16_AppendPoll(b *testing.B) {
	sys := fullSystem(b, 16)
	p, err := sys.Poller(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink += p.Poll()[0]
	}
	_ = sink
}

// --- Fig. 12/13 machinery: redundancy and ageing -------------------------

func BenchmarkFig12_WriteQueryMix(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			sys := fullSystem(b, 16)
			rep := sys.Reporter(1)
			data := []byte{1, 2, 3, 4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := dta.KeyFromUint64(uint64(i))
				if i%8 == 7 {
					sys.LookupValue(k, n)
				} else {
					rep.KeyWrite(k, data, n)
				}
			}
		})
	}
}

// --- Table 2 integrations: full monitoring systems over DTA --------------

func BenchmarkIntegration_INTPathTracing(b *testing.B) {
	paths, _ := inttel.NewPathModel(1024, 5, 5)
	vals := paths.ValueSpace()
	sys, err := dta.New(dta.Options{
		Postcarding: &dta.PostcardingOptions{Chunks: 1 << 16, Hops: 5, Values: vals},
	})
	if err != nil {
		b.Fatal(err)
	}
	rep := sys.Reporter(1)
	g, _ := trace.NewGenerator(trace.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := g.Next()
		k := p.Flow.Key()
		hop := i % 5
		if err := rep.Postcard(k, hop, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegration_MarpleTimeouts(b *testing.B) {
	sys, err := dta.New(dta.Options{
		KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 18, DataSize: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	rep := sys.Reporter(1)
	cfg := trace.DefaultConfig()
	cfg.LossRate = 0.01
	cfg.TimeoutRate = 1
	g, _ := trace.NewGenerator(cfg)
	q := marple.NewTCPTimeouts(2)
	var buf []wire.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := g.Next()
		buf = q.Process(&p, buf[:0])
		for j := range buf {
			if err := rep.KeyWrite(buf[j].KeyWrite.Key, buf[j].Data, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}
