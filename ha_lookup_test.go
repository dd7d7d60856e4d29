package dta

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dta/internal/collector"
)

// lookupScenario builds a 4-collector R=3 cluster in the state the
// failover lookups exist for: collector 1 missed a generation of writes
// and is back but stale, collector 2 is down, fresh collector 3 holds
// planted values its peers disagree with, and on fresh collector 0 some
// keys' slots no longer carry their checksum — what a colliding key
// looks like to a query. Deterministic: two calls build identical
// clusters. clobbered lists the keys whose slots collector 0 lost.
func lookupScenario(t *testing.T, opts Options) (c *HACluster, clobbered []uint64) {
	t.Helper()
	c, err := NewHACluster(4, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	write := func(from, to uint64, gen byte) {
		for k := from; k < to; k++ {
			key := KeyFromUint64(k)
			var err error
			if opts.KeyWrite != nil {
				err = rep.KeyWrite(key, []byte{gen, byte(k), byte(k >> 8), 1}, 2)
			}
			if err == nil && opts.KeyIncrement != nil {
				err = rep.Increment(key, k%7+1, 2)
			}
			for hop := 0; err == nil && opts.Postcarding != nil && hop < 3; hop++ {
				err = rep.PostcardValue(key, hop, 3, uint32(k+uint64(hop)+uint64(gen))%64+1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 1500, 1)
	if err := c.SetDown(1); err != nil {
		t.Fatal(err)
	}
	write(1000, 2000, 2)
	if err := c.SetUp(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDown(2); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k += 13 {
		key := KeyFromUint64(k)
		if kw := c.System(3).Host().KeyWriteStore(); kw != nil {
			plant(t, c, 3, key, []byte{9, 9, 9, 9}, 2)
		}
		if pcs := c.System(3).Host().PostcardingStore(); pcs != nil {
			if err := pcs.Write(key, []uint32{7, 7}, 2, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := uint64(5); k < 2000; k += 17 {
		key := KeyFromUint64(k)
		if kw := c.System(0).Host().KeyWriteStore(); kw != nil {
			for i := 0; i < 2; i++ {
				off := kw.Indexer().Offset(kw.Slot(i, key))
				copy(kw.Buffer()[off:], []byte{0xde, 0xad, 0xbe, 0xef})
			}
		}
		if pcs := c.System(0).Host().PostcardingStore(); pcs != nil {
			for j := 0; j < 2; j++ {
				off := pcs.ChunkOffset(pcs.Coder().Chunk(j, key))
				copy(pcs.Buffer()[off:], []byte{0xde, 0xad, 0xbe, 0xef})
			}
		}
		clobbered = append(clobbered, k)
	}
	return c, clobbered
}

func lookupOptions() Options {
	opts := fullOptions()
	opts.Postcarding.Redundancy = 2
	return opts
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestHALookupMatchesPerOwnerReference runs the planned lookups on one
// cluster and the per-owner reference (ha_lookup_ref_test.go) on its
// twin, call for call: every answer, error and HAStats snapshot must be
// the same, and so must every store byte and dirty tag once the
// read-repairs have run.
func TestHALookupMatchesPerOwnerReference(t *testing.T) {
	got, clobbered := lookupScenario(t, lookupOptions())
	ref, _ := lookupScenario(t, lookupOptions())
	rng := rand.New(rand.NewSource(19))
	check := func(step int, k uint64, n int) {
		t.Helper()
		key := KeyFromUint64(k)
		gv, gok, gerr := got.LookupValue(key, n)
		rv, rok, rerr := ref.refLookupValue(key, n)
		if !bytes.Equal(gv, rv) || gok != rok || !sameError(gerr, rerr) {
			t.Fatalf("step %d: LookupValue(%d, %d) = %x %v %v, reference %x %v %v", step, k, n, gv, gok, gerr, rv, rok, rerr)
		}
		gc, gerr := got.LookupCount(key, n)
		rc, rerr := ref.refLookupCount(key, n)
		if gc != rc || !sameError(gerr, rerr) {
			t.Fatalf("step %d: LookupCount(%d, %d) = %d %v, reference %d %v", step, k, n, gc, gerr, rc, rerr)
		}
		gp, gok, gerr := got.LookupPath(key, n)
		rp, rok, rerr := ref.refLookupPath(key, n)
		if !slices.Equal(gp, rp) || gok != rok || !sameError(gerr, rerr) {
			t.Fatalf("step %d: LookupPath(%d, %d) = %v %v %v, reference %v %v %v", step, k, n, gp, gok, gerr, rp, rok, rerr)
		}
		if g, r := got.HAStats(), ref.HAStats(); g != r {
			t.Fatalf("step %d (key %d, n %d): HAStats %+v, reference %+v", step, k, n, g, r)
		}
	}
	for step := 0; step < 12000; step++ {
		n := 2
		switch rng.Intn(16) {
		case 0:
			n = 1
		case 1:
			n = []int{-1, 0, 9}[rng.Intn(3)] // refused, and accounted, alike
		}
		check(step, uint64(rng.Intn(2500)), n) // the top fifth was never written
	}

	st := got.HAStats()
	if st.ReadRepairs == 0 || st.DegradedQueries == 0 || st.FailoverQueries == 0 {
		t.Fatalf("scenario exercised no repair, degraded or failover query: %+v", st)
	}
	// A fresh owner without an answer is a colliding key's, not a
	// missed write: no query may have written the winner into it.
	unrepaired := 0
	for _, k := range clobbered {
		key := KeyFromUint64(k)
		if !slices.Contains(got.Owners(key), 0) {
			continue
		}
		if _, ok, _ := got.System(0).LookupValue(key, 2); ok {
			t.Fatalf("key %d: fresh collector 0 had no answer and was repaired", k)
		}
		_, gok, _ := got.LookupValue(key, 2)
		if _, rok, _ := ref.refLookupValue(key, 2); gok != rok {
			t.Fatalf("key %d: found %v, reference %v", k, gok, rok)
		} else if gok {
			unrepaired++
		}
	}
	if unrepaired == 0 {
		t.Fatal("no clobbered key was answered by its other owners: the colliding-key case went unexercised")
	}
	for i := 0; i < got.Size(); i++ {
		gh, rh := got.System(i).Host(), ref.System(i).Host()
		if !bytes.Equal(gh.KeyWriteStore().Buffer(), rh.KeyWriteStore().Buffer()) ||
			!bytes.Equal(gh.KeyIncrementStore().Buffer(), rh.KeyIncrementStore().Buffer()) ||
			!bytes.Equal(gh.PostcardingStore().Buffer(), rh.PostcardingStore().Buffer()) {
			t.Errorf("collector %d: store bytes differ from the reference after read-repair", i)
		}
		for _, region := range []string{"keywrite", "keyincrement", "postcarding"} {
			if !slices.Equal(got.state[i].tracker.Tags(region), ref.state[i].tracker.Tags(region)) {
				t.Errorf("collector %d: %s dirty tags differ from the reference", i, region)
			}
		}
	}

	// No live owner at all.
	for i := 0; i < got.Size(); i++ {
		if err := got.SetDown(i); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetDown(i); err != nil {
			t.Fatal(err)
		}
	}
	check(-1, 42, 2)
	if _, _, err := got.LookupValue(KeyFromUint64(42), 2); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("all owners down: %v", err)
	}
}

// TestHALookupDisabledPrimitive: a lookup of a primitive the cluster
// does not run fails as the per-owner reference does — with the
// collector's error at the first live owner, accounted the same way —
// whichever owners are down or stale.
func TestHALookupDisabledPrimitive(t *testing.T) {
	opts := Options{KeyWrite: fullOptions().KeyWrite}
	got, _ := lookupScenario(t, opts)
	ref, _ := lookupScenario(t, opts)
	for k := uint64(0); k < 200; k++ {
		key := KeyFromUint64(k)
		_, gerr := got.LookupCount(key, 2)
		_, rerr := ref.refLookupCount(key, 2)
		if !errors.Is(gerr, collector.ErrDisabled) || !sameError(gerr, rerr) {
			t.Fatalf("LookupCount(%d) = %v, reference %v", k, gerr, rerr)
		}
		_, _, gerr = got.LookupPath(key, 2)
		_, _, rerr = ref.refLookupPath(key, 2)
		if !errors.Is(gerr, collector.ErrDisabled) || !sameError(gerr, rerr) {
			t.Fatalf("LookupPath(%d) = %v, reference %v", k, gerr, rerr)
		}
		if g, r := got.HAStats(), ref.HAStats(); g != r {
			t.Fatalf("key %d: HAStats %+v, reference %+v", k, g, r)
		}
	}
}

// TestHAParallelLookups runs the three lookups from several goroutines
// over a diverged cluster: touches and planned reads hold only the read
// lock while other queries repair under the write lock. Run under -race.
// Which repair lands first is the scheduler's choice, but every answer
// must be a value some replica was given for that key, never a torn one.
func TestHAParallelLookups(t *testing.T) {
	c, _ := lookupScenario(t, lookupOptions())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(2500))
				key := KeyFromUint64(k)
				data, ok, err := c.LookupValue(key, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if ok && !bytes.Equal(data, []byte{9, 9, 9, 9}) && !bytes.Equal(data[1:], []byte{byte(k), byte(k >> 8), 1}) {
					t.Errorf("LookupValue(%d) = %x: no replica was ever given that", k, data)
					return
				}
				if _, err := c.LookupCount(key, 2); err != nil {
					t.Error(err)
					return
				}
				path, ok, err := c.LookupPath(key, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if ok && !slices.Equal(path, []uint32{7, 7}) && (len(path) != 3 || path[1] != path[0]%64+1 || path[2] != path[1]%64+1) {
					t.Errorf("LookupPath(%d) = %v: no replica was ever given that", k, path)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.HAStats().ReadRepairs == 0 {
		t.Fatal("no lookup repaired anything: the write lock went unexercised")
	}
}

// TestHALookupAllocs pins the no-divergence fast path's allocations:
// LookupValue's one is the winner's copy out of the store, LookupCount
// makes none.
func TestHALookupAllocs(t *testing.T) {
	c, err := NewHACluster(4, 3, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	for k := uint64(0); k < 512; k++ {
		if err := rep.KeyWrite(KeyFromUint64(k), []byte{1, 2, 3, 4}, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Increment(KeyFromUint64(k), 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	k := uint64(0)
	if allocs := testing.AllocsPerRun(2000, func() {
		if _, _, err := c.LookupValue(KeyFromUint64(k%512), 2); err != nil {
			t.Fatal(err)
		}
		k++
	}); allocs > 1 {
		t.Errorf("LookupValue allocated %.2f/op, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(2000, func() {
		if _, err := c.LookupCount(KeyFromUint64(k%512), 2); err != nil {
			t.Fatal(err)
		}
		k++
	}); allocs != 0 {
		t.Errorf("LookupCount allocated %.2f/op, want 0", allocs)
	}
}

// TestHARejectsUnlikeMember: attach — construction and AddCollector's
// way in — refuses a collector whose stores are not member 0's geometry,
// whichever primitive differs, and admits one that is.
func TestHARejectsUnlikeMember(t *testing.T) {
	c, err := NewHACluster(2, 2, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	unlike := map[string]func(o *Options){
		"keywrite slots":      func(o *Options) { o.KeyWrite.Slots <<= 1 },
		"keyincrement slots":  func(o *Options) { o.KeyIncrement.Slots <<= 1 },
		"no keyincrement":     func(o *Options) { o.KeyIncrement = nil },
		"postcarding chunks":  func(o *Options) { o.Postcarding.Chunks <<= 1 },
		"postcarding values":  func(o *Options) { o.Postcarding.Values = o.Postcarding.Values[:32] },
		"no postcarding":      func(o *Options) { o.Postcarding = nil },
		"append entry size":   func(o *Options) { o.Append.EntrySize = 8 },
		"append list count":   func(o *Options) { o.Append.Lists = 2 },
		"no append primitive": func(o *Options) { o.Append = nil },
	}
	for name, change := range unlike {
		o := fullOptions()
		change(&o)
		sys, err := c.newMember(2, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := c.attach(sys); err == nil {
			t.Errorf("%s: unlike member attached", name)
		}
		if c.Size() != 2 {
			t.Fatalf("%s: a refused member grew the cluster to %d", name, c.Size())
		}
	}
	if id, err := c.AddCollector(); err != nil || id != 2 {
		t.Fatalf("AddCollector() = %d, %v", id, err)
	}
}
