// Asyncingest: concurrent reporters through the sharded ingest engine.
//
// Four reporter goroutines push Key-Writes and counter increments into
// a 2-collector cluster through the asynchronous engine; each
// collector's translator+host runs on its own worker goroutine behind a
// bounded queue. Drain is the epoch barrier: after it, every submitted
// report is queryable. Run with:
//
//	go run ./examples/asyncingest
package main

import (
	"fmt"
	"log"
	"sync"

	"dta"
)

func main() {
	cluster, err := dta.NewCluster(2, dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 18, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cluster.Engine(dta.EngineConfig{QueueDepth: 128, ChunkFrames: 32})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	const producers, perProducer = 4, 25000
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// One Reporter per goroutine: it owns its staging state and
			// staged chunks.
			rep := eng.Reporter(uint32(g + 1))
			for i := 0; i < perProducer; i++ {
				key := dta.KeyFromUint64(uint64(g)<<32 | uint64(i))
				val := []byte{byte(g), 0, byte(i >> 8), byte(i)}
				if err := rep.KeyWrite(key, val, 2); err != nil {
					log.Fatal(err)
				}
				if err := rep.Increment(dta.KeyFromUint64(uint64(i%512)), 1, 2); err != nil {
					log.Fatal(err)
				}
			}
			// Push staged chunks out before the barrier below.
			if err := rep.Flush(); err != nil {
				log.Fatal(err)
			}
		}(g)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		log.Fatal(err)
	}

	// Everything drained is queryable on the owning collector.
	val, ok, err := cluster.LookupValue(dta.KeyFromUint64(3<<32|1234), 2)
	if err != nil || !ok {
		log.Fatalf("lookup failed: ok=%v err=%v", ok, err)
	}
	count, err := cluster.LookupCount(dta.KeyFromUint64(42), 2)
	if err != nil {
		log.Fatal(err)
	}

	st := eng.Stats()
	fmt.Printf("value for producer 3 seq 1234: %x\n", val)
	// i%512 == 42 hits ceil((perProducer-42)/512) times per producer.
	want := producers * ((perProducer - 42 + 511) / 512)
	fmt.Printf("count for key 42: %d (want %d)\n", count, want)
	fmt.Printf("engine: enqueued=%d processed=%d dropped=%d batches=%d across %d shards\n",
		st.Enqueued, st.Processed, st.Dropped, st.Batches, eng.Shards())
}
