// Engine benchmarks: the synchronous call chain against the
// asynchronous ingest engine across shard counts, frame decoding at the
// edge and write-ahead-log sync policies. The paper's figure benchmarks
// live in the paper module (paper/README.md).
package dta_test

import (
	"sync"
	"testing"
	"time"

	"dta"
	"dta/internal/reporter"
)

func engineBenchOptions() dta.Options {
	return dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 18, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 16},
	}
}

// BenchmarkEngine_Sync1Shard is the baseline every engine configuration
// is measured against: the synchronous single-collector call chain.
func BenchmarkEngine_Sync1Shard(b *testing.B) {
	sys, err := dta.New(engineBenchOptions())
	if err != nil {
		b.Fatal(err)
	}
	rep := sys.Reporter(1)
	data := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineAsync drives an engine of the given shard count from four
// concurrent producer goroutines; ns/op across shard counts shows the
// shard-scaling curve, and against Sync1Shard the async win. Shard
// scaling is real parallelism, so it only shows on GOMAXPROCS ≥ 2: a
// single-core run measures pure queueing overhead. The frames flag adds
// the wire format at the edge (serialise on the producer, SubmitFrame
// decodes) to the staged path — a Fig. 10-style comparison.
func benchEngineAsync(b *testing.B, shards int, frames bool) {
	benchEngineAsyncWAL(b, shards, frames, nil)
}

// benchEngineAsyncWAL is benchEngineAsync with an optional per-shard
// write-ahead log: wal != nil attaches one under a fresh temp directory
// with the given sync policy, measuring what durability costs the hot
// ingest path (WAL-on vs WAL-off per policy).
func benchEngineAsyncWAL(b *testing.B, shards int, frames bool, wal *dta.WALPolicy) {
	cl, err := dta.NewHACluster(shards, 1, engineBenchOptions())
	if err != nil {
		b.Fatal(err)
	}
	if wal != nil {
		if err := cl.WithWAL(b.TempDir(), *wal); err != nil {
			b.Fatal(err)
		}
	}
	// Shallow queues on purpose: with Block backpressure the producers
	// simply wait, and the in-flight chunk working set stays
	// cache-resident (deep queues — e.g. 8192 — put >100MB in flight and
	// turn every chunk touch into a DRAM miss, measuring memory latency
	// instead of the ingest path).
	eng, err := cl.Engine(dta.EngineConfig{QueueDepth: 256, Batch: 64})
	if err != nil {
		b.Fatal(err)
	}
	const producers = 4
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep := eng.Reporter(uint32(g + 1))
			var drv interface {
				KeyWrite(key dta.Key, data []byte, n int) error
			} = rep
			if frames {
				drv = &reporter.Sender{Rep: reporter.New(reporter.Config{SwitchID: uint32(g + 1)}), Send: rep.SubmitFrame}
			}
			data := []byte{1, 2, 3, 4}
			for i := g; i < b.N; i += producers {
				if err := drv.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
					b.Error(err)
					return
				}
			}
			if err := rep.Flush(); err != nil {
				b.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	st := eng.Stats()
	if st.Processed != uint64(b.N) {
		b.Fatalf("processed %d of %d reports", st.Processed, b.N)
	}
}

// Structured fast path (the default Reporter).
func BenchmarkEngine_Async1Shard(b *testing.B) { benchEngineAsync(b, 1, false) }
func BenchmarkEngine_Async2Shard(b *testing.B) { benchEngineAsync(b, 2, false) }
func BenchmarkEngine_Async4Shard(b *testing.B) { benchEngineAsync(b, 4, false) }

// Wire frames decoded at the edge (Reporter.SubmitFrame) at the
// same shard counts.
func BenchmarkEngine_AsyncFrame1Shard(b *testing.B) { benchEngineAsync(b, 1, true) }
func BenchmarkEngine_AsyncFrame2Shard(b *testing.B) { benchEngineAsync(b, 2, true) }
func BenchmarkEngine_AsyncFrame4Shard(b *testing.B) { benchEngineAsync(b, 4, true) }

// Durability cost: the structured 4-shard path with a write-ahead log
// per collector, across the sync-policy spectrum. WALNone (OS-paced)
// must stay within a sliver of the WAL-off Async4Shard baseline.
func BenchmarkEngine_Async4Shard_WALNone(b *testing.B) {
	benchEngineAsyncWAL(b, 4, false, &dta.WALPolicy{Mode: dta.WALSyncNone})
}
func BenchmarkEngine_Async4Shard_WALInterval(b *testing.B) {
	benchEngineAsyncWAL(b, 4, false, &dta.WALPolicy{Mode: dta.WALSyncInterval, Interval: 10 * time.Millisecond})
}
func BenchmarkEngine_Async4Shard_WALBatch(b *testing.B) {
	benchEngineAsyncWAL(b, 4, false, &dta.WALPolicy{Mode: dta.WALSyncBatch})
}
