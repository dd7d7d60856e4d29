package dta_test

import (
	"errors"
	"sync"
	"testing"

	"dta"
	"dta/internal/loadgen"
)

func engineOptions() dta.Options {
	return dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 18, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 16},
		Postcarding:  &dta.PostcardingOptions{Chunks: 1 << 14, Hops: 5, Values: seqValues(64)},
		Append:       &dta.AppendOptions{Lists: 8, EntriesPerList: 1 << 12, EntrySize: 4, Batch: 16},
	}
}

func seqValues(n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i + 1)
	}
	return vals
}

// TestEngineSystemAsyncIngest pushes Key-Writes from concurrent
// producers through a single-shard engine and verifies every value is
// queryable after Drain.
func TestEngineSystemAsyncIngest(t *testing.T) {
	sys, err := dta.New(engineOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.Engine(dta.EngineConfig{QueueDepth: 256, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep := eng.Reporter(uint32(g + 1))
			for i := 0; i < perProducer; i++ {
				k := uint64(g)<<32 | uint64(i)
				data := []byte{byte(g), byte(i >> 16), byte(i >> 8), byte(i)}
				if err := rep.KeyWrite(dta.KeyFromUint64(k), data, 2); err != nil {
					t.Errorf("KeyWrite(%d): %v", k, err)
					return
				}
			}
			if err := rep.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if want := uint64(producers * perProducer); st.Enqueued != want || st.Processed != want {
		t.Fatalf("engine stats = %+v, want %d enqueued and processed", st, want)
	}
	if st.Dropped != 0 {
		t.Fatalf("block policy dropped %d reports", st.Dropped)
	}
	for g := 0; g < producers; g++ {
		for i := 0; i < perProducer; i += 97 {
			k := uint64(g)<<32 | uint64(i)
			data, ok, err := sys.LookupValue(dta.KeyFromUint64(k), 2)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("key %d lost after drain", k)
			}
			if data[0] != byte(g) || data[3] != byte(i) {
				t.Fatalf("key %d holds %v, want producer %d seq %d", k, data, g, i)
			}
		}
	}
	if got := sys.Stats().Reports; got != uint64(producers*perProducer) {
		t.Fatalf("translator processed %d reports, want %d", got, producers*perProducer)
	}
}

// TestEngineClusterMatchesSync ingests the same workload synchronously
// and through a sharded engine and verifies both clusters answer
// queries identically.
func TestEngineClusterMatchesSync(t *testing.T) {
	const shards, keys = 4, 2000
	syncCl, err := dta.NewCluster(shards, engineOptions())
	if err != nil {
		t.Fatal(err)
	}
	asyncCl, err := dta.NewCluster(shards, engineOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asyncCl.Engine(dta.EngineConfig{QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	syncRep := syncCl.Reporter(1)
	asyncRep := eng.Reporter(1)
	for i := 0; i < keys; i++ {
		k := dta.KeyFromUint64(uint64(i))
		data := []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
		if err := syncRep.KeyWrite(k, data, 2); err != nil {
			t.Fatal(err)
		}
		if err := asyncRep.KeyWrite(k, data, 2); err != nil {
			t.Fatal(err)
		}
		if err := syncRep.Increment(k, uint64(i%7+1), 2); err != nil {
			t.Fatal(err)
		}
		if err := asyncRep.Increment(k, uint64(i%7+1), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := asyncRep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := syncCl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i += 41 {
		k := dta.KeyFromUint64(uint64(i))
		sv, sok, err := syncCl.LookupValue(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		av, aok, err := asyncCl.LookupValue(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sok != aok || (sok && string(sv) != string(av)) {
			t.Fatalf("key %d: sync=(%v,%v) async=(%v,%v)", i, sv, sok, av, aok)
		}
		sc, err := syncCl.LookupCount(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := asyncCl.LookupCount(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sc != ac {
			t.Fatalf("key %d: sync count %d, async count %d", i, sc, ac)
		}
	}
	ss, as := syncCl.Stats(), asyncCl.Stats()
	if ss.Reports != as.Reports {
		t.Fatalf("sync translators saw %d reports, async %d", ss.Reports, as.Reports)
	}
}

// TestEngineLoadgenDeterminism runs the same seeded mixed workload
// twice and requires identical per-shard enqueue counts.
func TestEngineLoadgenDeterminism(t *testing.T) {
	perShard := func(seed int64) []uint64 {
		cl, err := dta.NewCluster(4, engineOptions())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cl.Engine(dta.EngineConfig{QueueDepth: 1024, Batch: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		cfg := loadgen.Config{
			Profile:   loadgen.Profile{Kind: loadgen.Mixed, Keys: 1 << 12},
			Reporters: 6,
			Reports:   2000,
			Seed:      seed,
			Drain:     eng.Drain,
		}
		res, err := loadgen.Run(cfg, func(i int) loadgen.Reporter {
			return eng.Reporter(uint32(i + 1))
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(cfg.Reporters * cfg.Reports); res.Submitted != want {
			t.Fatalf("submitted %d, want %d", res.Submitted, want)
		}
		counts := make([]uint64, eng.Shards())
		var total uint64
		for i, st := range eng.ShardStats() {
			counts[i] = st.Enqueued
			total += st.Enqueued
			if st.Enqueued != st.Processed {
				t.Fatalf("shard %d: enqueued %d != processed %d after drain", i, st.Enqueued, st.Processed)
			}
		}
		if total != res.Submitted {
			t.Fatalf("shards hold %d reports, loadgen submitted %d", total, res.Submitted)
		}
		return counts
	}

	a := perShard(99)
	b := perShard(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d: %d vs %d reports across same-seed runs", i, a[i], b[i])
		}
	}
	c := perShard(100)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical per-shard counts")
	}
}

// TestEngineCloseSemantics covers the public enqueue-after-Close path.
func TestEngineCloseSemantics(t *testing.T) {
	sys, err := dta.New(engineOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.Engine(dta.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Reporter(1)
	if err := rep.KeyWrite(dta.KeyFromUint64(7), []byte{1, 2, 3, 4}, 2); err != nil {
		t.Fatal(err)
	}
	// Staged reports die with Close; only flushed ones survive it.
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rep.KeyWrite(dta.KeyFromUint64(8), []byte{1, 2, 3, 4}, 2); !errors.Is(err, dta.ErrEngineClosed) {
		t.Fatalf("KeyWrite after Close = %v, want ErrEngineClosed", err)
	}
	if err := eng.Drain(); !errors.Is(err, dta.ErrEngineClosed) {
		t.Fatalf("Drain after Close = %v, want ErrEngineClosed", err)
	}
	// The pre-close report was ingested and flushed on Close.
	if _, ok, err := sys.LookupValue(dta.KeyFromUint64(7), 2); err != nil || !ok {
		t.Fatalf("pre-close report lost (ok=%v err=%v)", ok, err)
	}
}

// TestEngineDropPolicy checks the shed-with-stat path end to end: with
// a tiny queue and relentless producers, drops are counted and
// everything accepted is ingested.
func TestEngineDropPolicy(t *testing.T) {
	sys, err := dta.New(engineOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.Engine(dta.EngineConfig{QueueDepth: 4, Batch: 2, Policy: dta.EngineDrop})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const producers, perProducer = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep := eng.Reporter(uint32(g + 1))
			for i := 0; i < perProducer; i++ {
				k := uint64(g)<<32 | uint64(i)
				if err := rep.KeyWrite(dta.KeyFromUint64(k), []byte{1, 2, 3, 4}, 1); err != nil {
					t.Errorf("drop-policy KeyWrite: %v", err)
					return
				}
			}
			if err := rep.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Enqueued+st.Dropped != producers*perProducer {
		t.Fatalf("enqueued %d + dropped %d != %d attempts", st.Enqueued, st.Dropped, producers*perProducer)
	}
	if st.Processed != st.Enqueued {
		t.Fatalf("processed %d != enqueued %d after drain", st.Processed, st.Enqueued)
	}
	if got := sys.Stats().Reports; got != st.Processed {
		t.Fatalf("translator saw %d reports, engine processed %d", got, st.Processed)
	}
}
