package dta

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"dta/internal/telemetry/inttel"
	"dta/internal/trace"
)

// TestManyReportersSharedStore exercises the architectural claim of §3:
// many switches share one collector store through stateless hashing,
// with no coordination beyond configuration.
func TestManyReportersSharedStore(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	const switches = 64
	reps := make([]*Reporter, switches)
	for i := range reps {
		reps[i] = sys.Reporter(uint32(i + 1))
	}
	// Each switch reports its own keys; all land in one store.
	const perSwitch = 20
	for si, rep := range reps {
		for k := 0; k < perSwitch; k++ {
			id := uint64(si)<<32 | uint64(k)
			var data [4]byte
			binary.BigEndian.PutUint32(data[:], uint32(si*1000+k))
			if err := rep.KeyWrite(KeyFromUint64(id), data[:], 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	found := 0
	for si := 0; si < switches; si++ {
		for k := 0; k < perSwitch; k++ {
			id := uint64(si)<<32 | uint64(k)
			data, ok, err := sys.LookupValue(KeyFromUint64(id), 2)
			if err != nil {
				t.Fatal(err)
			}
			if ok && binary.BigEndian.Uint32(data) == uint32(si*1000+k) {
				found++
			}
		}
	}
	// 1280 keys in 4096 slots (α≈0.31 with N=2): expect the vast
	// majority queryable.
	if found < switches*perSwitch*85/100 {
		t.Errorf("only %d/%d keys queryable", found, switches*perSwitch)
	}
}

// TestEndToEndINTOverLossyFabric drives the full stack — trace
// generation, INT postcard sources per switch, translation, RDMA,
// store, queries — over a fabric that loses ≈ 5 % of postcards before
// they reach the translator (a seeded draw per postcard), and checks
// that losses only degrade coverage, never correctness.
func TestEndToEndINTOverLossyFabric(t *testing.T) {
	paths, err := inttel.NewPathModel(256, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Postcarding: &PostcardingOptions{
			Chunks: 1 << 12, Hops: 5, Values: paths.ValueSpace(), CacheRows: 1 << 12,
		},
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	loss := rand.New(rand.NewSource(3))
	reps := map[uint32]*Reporter{}
	seen := map[Key]bool{}
	dropped := 0
	for i := 0; i < 3000; i++ {
		p := g.Next()
		key := p.Flow.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		for hop := 0; hop < 5; hop++ {
			id := paths.SwitchID(key, hop)
			rep := reps[id]
			if rep == nil {
				rep = sys.Reporter(id)
				reps[id] = rep
			}
			sys.Advance(100)
			if loss.Float64() < 0.05 {
				dropped++ // lost in the fabric, like any UDP datagram
				continue
			}
			if err := rep.Postcard(key, hop, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("the fabric dropped nothing")
	}
	okCount, wrongCount := 0, 0
	for key := range seen {
		got, ok, err := sys.LookupPath(key, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // lost postcards or overwritten: acceptable
		}
		okCount++
		want := paths.Path(key, nil)
		if len(got) > len(want) {
			wrongCount++
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				wrongCount++
				break
			}
		}
	}
	if okCount == 0 {
		t.Fatal("no flow queryable at 5% loss")
	}
	// Best-effort degradation: wrong answers must be essentially absent
	// (the checksum machinery rejects partial chunks).
	if wrongCount > okCount/100 {
		t.Errorf("%d wrong paths out of %d answers", wrongCount, okCount)
	}
}

// TestConcurrentQueriesDuringCollection checks that collection (single
// writer) and queries (many readers over snapshots of memory) can
// interleave without corrupting results, mirroring Fig. 16's concurrent
// collection/processing setup. Collection and queries alternate in
// epochs; within an epoch queries run in parallel.
func TestConcurrentQueriesDuringCollection(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	for epoch := 0; epoch < 5; epoch++ {
		base := uint64(epoch) * 100
		for k := uint64(0); k < 100; k++ {
			var data [4]byte
			binary.BigEndian.PutUint32(data[:], uint32(base+k))
			if err := rep.KeyWrite(KeyFromUint64(base+k), data[:], 2); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := uint64(0); k < 100; k++ {
					data, ok, err := sys.LookupValue(KeyFromUint64(base+k), 2)
					if err != nil {
						errs <- err
						return
					}
					if ok && binary.BigEndian.Uint32(data) != uint32(base+k) {
						t.Errorf("worker %d: key %d wrong value", w, base+k)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
}

// TestAppendOrderPreservedAcrossPrimitivesMix interleaves all four
// primitives through one translator and checks Append's FIFO order
// survives the multiplexing.
func TestAppendOrderPreservedAcrossPrimitivesMix(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	var wantList []uint32
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			var e [4]byte
			binary.BigEndian.PutUint32(e[:], uint32(i))
			if err := rep.Append(1, e[:]); err != nil {
				t.Fatal(err)
			}
			wantList = append(wantList, uint32(i))
		case 1:
			rep.KeyWrite(KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 1)
		case 2:
			rep.Increment(KeyFromUint64(uint64(i)), 1, 1)
		case 3:
			rep.Postcard(KeyFromUint64(uint64(i)), i%5, 5)
		}
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Poller(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range wantList {
		if got := binary.BigEndian.Uint32(p.Poll()); got != want {
			t.Fatalf("append order broken: got %d want %d", got, want)
		}
	}
}

// TestLatencyQueryThroughFacade covers the §7 extension end to end via
// the public API.
func TestLatencyQueryThroughFacade(t *testing.T) {
	opts := fullOptions()
	opts.Append.EntrySize = 24
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	q := sys.InstallLatencyQuery(1<<10, 5, 100, 2)
	rep := sys.Reporter(1)
	slow, fast := KeyFromUint64(1), KeyFromUint64(2)
	for hop := 0; hop < 5; hop++ {
		rep.PostcardValue(slow, hop, 5, 50) // sum 250
		rep.PostcardValue(fast, hop, 5, 10) // sum 50
	}
	if q.Stats.Triggered != 1 {
		t.Fatalf("triggered = %d", q.Stats.Triggered)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	p, _ := sys.Poller(2)
	e := p.Poll()
	var k Key
	copy(k[:], e[:16])
	if k != slow {
		t.Errorf("wrong flow reported: %v", k)
	}
	if sum := binary.BigEndian.Uint64(e[16:]); sum != 250 {
		t.Errorf("sum = %d", sum)
	}
	if !bytes.Equal(e[:16], slow[:]) {
		t.Error("entry key bytes mismatch")
	}
}
