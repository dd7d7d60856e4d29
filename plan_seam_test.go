package dta

import (
	"bytes"
	"runtime/debug"
	"sync"
	"testing"

	"dta/internal/wire"
)

// TestLossyLinkCutsPlanWithRecords pins the plan as really used, and cut
// in step with the records, on the lossy-link path. The records carry
// key k but the plan handed in beside them was made for key k+offset —
// so if the sink dropped the plan (and planned in place) the stores would
// hold k's slots, and if it cut the plan one record out of step with the
// link's drops they would hold a neighbour's. The reference system gets
// records that really carry k+offset, planned in place, through a link
// dropping the same frames.
func TestLossyLinkCutsPlanWithRecords(t *testing.T) {
	opts := Options{
		KeyWrite:     &KeyWriteOptions{Slots: 1 << 10, DataSize: 4},
		KeyIncrement: &KeyIncrementOptions{Slots: 1 << 8},
		Postcarding:  &PostcardingOptions{Chunks: 1 << 8, Hops: 3, Values: []uint32{1, 2, 3, 4, 5, 6, 7}, CacheRows: 16},
		Append:       &AppendOptions{Lists: 4, EntriesPerList: 1 << 8, EntrySize: 4, Batch: 4},
		ReporterLoss: 0.2,
		Seed:         18,
	}
	const offset = 1 << 40
	stream := func(shift uint64) []wire.StagedReport {
		recs := make([]wire.StagedReport, 3200)
		for i := range recs {
			k := wire.KeyFromUint64(uint64(i)%300 + shift)
			var rep wire.Report
			switch i % 4 {
			case 0, 1:
				rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
					KeyWrite: wire.KeyWrite{Redundancy: uint8(1 + i%3), Key: k}, Data: []byte{byte(i), byte(i >> 8), 0, 1}}
			case 2:
				rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
					KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: k, Delta: uint64(1 + i%5)}}
			case 3:
				rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
					Append: wire.Append{ListID: uint32(i % 4)}, Data: []byte{byte(i >> 8), byte(i), 0, 7}}
			}
			recs[i].Stage(&rep)
		}
		return recs
	}
	real, decoy := stream(0), stream(offset)

	build := func() *System {
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref, got := build(), build()
	var plan wire.ChunkPlan
	for a := 0; a < len(real); a += 32 {
		b := a + 32
		if failed, err := (systemSink{ref}).ProcessStagedBatch(decoy[a:b], wire.ChunkPlan{}, nil, 0); failed != 0 {
			t.Fatal(err)
		}
		plan.Reset()
		for i := a; i < b; i++ {
			systemSink{got}.PlanStaged(&decoy[i], &plan)
		}
		if failed, err := (systemSink{got}).ProcessStagedBatch(real[a:b], plan, nil, 0); failed != 0 {
			t.Fatal(err)
		}
	}
	for _, s := range []*System{ref, got} {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if d := ref.Stats().LinkDropped; d < 100 || d != got.Stats().LinkDropped {
		t.Fatalf("link dropped %d frames on the reference, %d under test; want equal and plenty", d, got.Stats().LinkDropped)
	}
	sameImages(t, "stores written from the plan", storeImages(ref), storeImages(got))
}

// TestPlanEntryIsReadOnlyUnderProducers runs the plan entry the way the
// engine does — many submitting goroutines hashing against one
// translator's geometry while its worker translates — under the race
// detector, all four primitives in flight. Key-Increment is commutative,
// so its store must match a synchronous run byte for byte whatever the
// interleaving; every Key-Write key is written once, so each must read
// back.
func TestPlanEntryIsReadOnlyUnderProducers(t *testing.T) {
	opts := fullOptions()
	opts.KeyWrite = &KeyWriteOptions{Slots: 1 << 16, DataSize: 4}
	const producers, perProducer = 4, 3000

	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.Engine(EngineConfig{ChunkFrames: 8, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rep := eng.Reporter(uint32(p + 1))
			for i := 0; i < perProducer; i++ {
				k := uint64(p*perProducer + i)
				err := rep.KeyWrite(KeyFromUint64(k), keyData(k), 2)
				if err == nil {
					err = rep.Increment(KeyFromUint64(k%97), 1+k%3, 2)
				}
				if err == nil && i%8 == 0 {
					err = rep.Postcard(KeyFromUint64(1<<32|k), int(k%5), 5)
				}
				if err == nil && i%8 == 4 {
					err = rep.Append(uint32(p), keyData(k))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			if err := rep.Flush(); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := ref.Reporter(1)
	for k := uint64(0); k < producers*perProducer; k++ {
		if err := rep.Increment(KeyFromUint64(k%97), 1+k%3, 2); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ref.host.KeyIncrementStore().Buffer(), sys.host.KeyIncrementStore().Buffer()) {
		t.Error("Key-Increment store differs from the synchronous run's")
	}
	missing := 0
	for k := uint64(0); k < producers*perProducer; k++ {
		data, ok, err := sys.LookupValue(KeyFromUint64(k), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			missing++ // both slots overwritten by later keys: rare, allowed
		} else if !bytes.Equal(data, keyData(k)) {
			t.Fatalf("key %d read back %v", k, data)
		}
	}
	if missing > producers*perProducer/50 {
		t.Errorf("%d of %d keys unreadable: slots were not the planned ones", missing, producers*perProducer)
	}
}

// TestHAFanoutZeroAllocs pins the replicated structured ingest chain —
// owner lookup, one staging and one plan, R chunk copies, R shard queues,
// R translators — at zero allocations per report once pools are warm.
func TestHAFanoutZeroAllocs(t *testing.T) {
	c, err := NewHACluster(4, 3, Options{
		KeyWrite:     &KeyWriteOptions{Slots: 1 << 16, DataSize: 4},
		KeyIncrement: &KeyIncrementOptions{Slots: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := c.Engine(EngineConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep := eng.Reporter(1)
	data := []byte{1, 2, 3, 4}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := uint64(0)
	op := func() {
		if err := rep.KeyWrite(KeyFromUint64(i), data, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Increment(KeyFromUint64(i), 1, 2); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 20_000 { // warm pools, plan arrays and queues
		op()
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5000, op); allocs != 0 {
		t.Fatalf("HA fan-out Key-Write + Increment allocated %.2f/op, want 0", allocs)
	}
}

// TestHAEngineRejectsUnlikeMembers: a fan-out plans once for all owners,
// so an engine over members that would plan differently must not start.
func TestHAEngineRejectsUnlikeMembers(t *testing.T) {
	c, err := NewHACluster(2, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	odd, err := New(Options{KeyWrite: &KeyWriteOptions{Slots: 1 << 10, DataSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newEngine([]*System{c.System(0), odd}, nil, c, EngineConfig{}); err == nil {
		t.Fatal("engine started over members with different store geometry")
	}
	if _, err := newEngine([]*System{c.System(0), c.System(1)}, nil, c, EngineConfig{}); err != nil {
		t.Fatalf("identical members rejected: %v", err)
	}
}
