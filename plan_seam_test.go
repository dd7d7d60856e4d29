package dta

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"dta/internal/rdma"
	"dta/internal/wire"
)

// TestSinkUsesStagedPlan pins the plan as really used. The records carry
// key k, a value and a delta, but the plan handed in beside them was made
// for key k+offset, another value and another delta — so if the sink
// dropped the plan (and planned in place) the stores would hold k's
// slots, and if it took the operand from the record they would hold the
// record's value and delta. The reference system gets records that
// really carry k+offset and the plan's value and delta, planned in place.
func TestSinkUsesStagedPlan(t *testing.T) {
	opts := Options{
		KeyWrite:     &KeyWriteOptions{Slots: 1 << 10, DataSize: 4},
		KeyIncrement: &KeyIncrementOptions{Slots: 1 << 8},
		Postcarding:  &PostcardingOptions{Chunks: 1 << 8, Hops: 3, Values: []uint32{1, 2, 3, 4, 5, 6, 7}, CacheRows: 16},
		Append:       &AppendOptions{Lists: 4, EntriesPerList: 1 << 8, EntrySize: 4, Batch: 4},
	}
	const offset = 1 << 40
	stream := func(shift uint64, v byte) []wire.StagedReport {
		recs := make([]wire.StagedReport, 3200)
		for i := range recs {
			k := wire.KeyFromUint64(uint64(i)%300 + shift)
			var rep wire.Report
			switch i % 4 {
			case 0, 1:
				rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
					KeyWrite: wire.KeyWrite{Redundancy: uint8(1 + i%3), Key: k}, Data: []byte{byte(i), byte(i >> 8), v, 1}}
			case 2:
				rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
					KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: k, Delta: uint64(1+i%5) + uint64(v)}}
			case 3:
				rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
					Append: wire.Append{ListID: uint32(i % 4)}, Data: []byte{byte(i >> 8), byte(i), 0, 7}}
			}
			recs[i].Stage(&rep)
		}
		return recs
	}
	real, decoy := stream(0, 0), stream(offset, 9)

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
		if failed, err := (systemSink{ref}).ProcessStagedBatch(decoy[a:b], nil, wire.ChunkPlan{}, nil, 0); failed != 0 {
			t.Fatal(err)
		}
		plan.Reset()
		for i := a; i < b; i++ {
			systemSink{got}.PlanStaged(&decoy[i], &plan)
		}
		if failed, err := (systemSink{got}).ProcessStagedBatch(real[a:b], nil, plan, nil, 0); failed != 0 {
			t.Fatal(err)
		}
	}
	for _, s := range []*System{ref, got} {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	sameImages(t, "stores written from the plan", storeImages(ref), storeImages(got))
}

// TestPlannedCraftReadsNoRecord pins stage C to the plan: a planned
// record is crafted from its plan entry, slots and operand alone. Seeded
// chunks of all four primitives, of 1 to 80 records (across window
// edges), are planned; then every planned record is overwritten with a
// decoy of another primitive, key, value, delta and flags before the
// chunk is translated. No WAL and no traces, so nothing else reads a
// record. Stores, translator Stats, DeviceStats and the immediate
// events must equal those of a twin fed the original records unplanned.
func TestPlannedCraftReadsNoRecord(t *testing.T) {
	opts := fullOptions()
	rng := rand.New(rand.NewSource(5711))
	report := func(prim wire.Primitive, k uint64) wire.Report {
		h := wire.Header{Version: wire.Version, Primitive: prim, Flags: uint8(rng.Intn(2)) * wire.FlagImmediate}
		key := wire.KeyFromUint64(k)
		data := make([]byte, 1+rng.Intn(4))
		rng.Read(data)
		switch prim {
		case wire.PrimKeyWrite:
			return wire.Report{Header: h, KeyWrite: wire.KeyWrite{Redundancy: uint8(rng.Intn(5)), Key: key}, Data: data}
		case wire.PrimKeyIncrement:
			return wire.Report{Header: h, KeyIncrement: wire.KeyIncrement{Redundancy: uint8(rng.Intn(4)), Key: key, Delta: 1 + rng.Uint64()%1000}}
		case wire.PrimPostcarding:
			return wire.Report{Header: h, Postcard: wire.Postcard{Key: key, Hop: uint8(rng.Intn(5)), PathLen: 5, Value: uint32(1 + rng.Intn(64))}}
		default:
			return wire.Report{Header: h, Append: wire.Append{ListID: uint32(rng.Intn(4))}, Data: data[:1]}
		}
	}
	prims := []wire.Primitive{wire.PrimKeyWrite, wire.PrimKeyIncrement, wire.PrimPostcarding, wire.PrimAppend}

	build := func() *System {
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref, got := build(), build()
	var plan wire.ChunkPlan
	var refEvs, gotEvs []rdma.ImmediateEvent
	decoys := 0
	for range 200 {
		orig := make([]wire.StagedReport, 1+rng.Intn(80))
		for i := range orig {
			rep := report(prims[rng.Intn(len(prims))], uint64(rng.Intn(600)))
			orig[i].Stage(&rep)
		}
		recs := slices.Clone(orig)
		plan.Reset()
		for i := range recs {
			systemSink{got}.PlanStaged(&recs[i], &plan)
		}
		for i := range recs {
			if plan.Recs[i].N() == 0 {
				continue
			}
			prim := prims[rng.Intn(len(prims))]
			for prim == recs[i].Primitive() {
				prim = prims[rng.Intn(len(prims))]
			}
			rep := report(prim, 1<<40|uint64(rng.Intn(600)))
			rep.Header.Flags = recs[i].Flags() ^ wire.FlagImmediate
			recs[i].Stage(&rep)
			decoys++
		}
		if failed, err := (systemSink{ref}).ProcessStagedBatch(orig, nil, wire.ChunkPlan{}, nil, 0); failed != 0 {
			t.Fatal(err)
		}
		if failed, err := (systemSink{got}).ProcessStagedBatch(recs, nil, plan, nil, 0); failed != 0 {
			t.Fatal(err)
		}
		refEvs, gotEvs = drainEvents(ref, refEvs), drainEvents(got, gotEvs)
	}
	for _, s := range []*System{ref, got} {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if decoys < 1000 {
		t.Fatalf("only %d planned records replaced by decoys", decoys)
	}
	sameImages(t, "stores crafted from the plan alone", storeImages(ref), storeImages(got))
	if g, r := got.tr.Stats(), ref.tr.Stats(); g != r {
		t.Errorf("translator Stats:\n from the plan %+v\n unplanned     %+v", g, r)
	}
	if g, r := got.host.Device().Stats, ref.host.Device().Stats; g != r {
		t.Errorf("DeviceStats:\n from the plan %+v\n unplanned     %+v", g, r)
	}
	if !slices.Equal(gotEvs, refEvs) || len(refEvs) == 0 {
		t.Errorf("%d immediate events from the plan, %d unplanned (or none)", len(gotEvs), len(refEvs))
	}
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
// owner lookup, one staging and one plan, one chunk read through R shard
// views, R shard queues, R translators — at zero allocations per report
// once pools are warm.
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
	if _, err := newEngine([]*System{c.System(0), odd}, c, EngineConfig{}); err == nil {
		t.Fatal("engine started over members with different store geometry")
	}
	if _, err := newEngine([]*System{c.System(0), c.System(1)}, c, EngineConfig{}); err != nil {
		t.Fatalf("identical members rejected: %v", err)
	}
}
