package keyincrement

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dta/internal/crc"
	"dta/internal/wire"
)

func key(v uint64) wire.Key { return wire.KeyFromUint64(v) }

func mustStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewStore(Config{Slots: 0}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := NewStore(Config{Slots: 100}); err == nil {
		t.Error("non-power-of-two slots accepted")
	}
}

func TestIncrementAndQuery(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 12})
	k := key(42)
	for _, n := range []int{1, 2, 4} {
		s.Reset()
		s.Increment(k, 5, n)
		s.Increment(k, 7, n)
		got, err := s.Query(k, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != 12 {
			t.Errorf("N=%d: query = %d, want 12", n, got)
		}
	}
}

func TestQueryUnknownKeyIsZero(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 12})
	s.Increment(key(1), 100, 2)
	if got, _ := s.Query(key(999), 2); got != 0 {
		// A collision could make this nonzero, but with 4096 slots and
		// one key the chance is ~2^-12 per slot; deterministic seed keys
		// here do not collide.
		t.Errorf("unknown key = %d, want 0", got)
	}
}

func TestRedundancyValidation(t *testing.T) {
	s := mustStore(t, Config{Slots: 64})
	if err := s.Increment(key(1), 1, 0); err == nil {
		t.Error("redundancy 0 accepted")
	}
	if _, err := s.Query(key(1), MaxRedundancy+1); err == nil {
		t.Error("redundancy 9 accepted")
	}
}

func TestNeverUndercounts(t *testing.T) {
	// The count-min property: estimates are always ≥ the true count.
	const keys = 500
	s := mustStore(t, Config{Slots: 256}) // small store forces collisions
	rnd := rand.New(rand.NewSource(5))
	truth := make(map[uint64]uint64)
	for i := 0; i < 5000; i++ {
		kv := uint64(rnd.Intn(keys))
		delta := uint64(rnd.Intn(10) + 1)
		truth[kv] += delta
		s.Increment(key(kv), delta, 2)
	}
	for kv, want := range truth {
		got, _ := s.Query(key(kv), 2)
		if got < want {
			t.Fatalf("key %d: estimate %d below truth %d", kv, got, want)
		}
	}
}

func TestMoreRedundancyTightensEstimates(t *testing.T) {
	// Averaged over many keys, min over 4 counters ≤ min over 1 counter.
	s := mustStore(t, Config{Slots: 512})
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		s.Increment(key(uint64(rnd.Intn(400))), 1, 4)
	}
	var sum1, sum4 uint64
	for kv := uint64(0); kv < 400; kv++ {
		q1, _ := s.Query(key(kv), 1)
		q4, _ := s.Query(key(kv), 4)
		if q4 > q1 {
			t.Fatalf("key %d: min over 4 (%d) exceeds min over 1 (%d)", kv, q4, q1)
		}
		sum1 += q1
		sum4 += q4
	}
	if sum4 >= sum1 {
		t.Errorf("N=4 total %d not tighter than N=1 total %d", sum4, sum1)
	}
}

func TestReset(t *testing.T) {
	s := mustStore(t, Config{Slots: 64})
	s.Increment(key(1), 99, 2)
	s.Reset()
	if got, _ := s.Query(key(1), 2); got != 0 {
		t.Errorf("after reset = %d", got)
	}
}

func TestQueryMonotoneInIncrements(t *testing.T) {
	f := func(deltas []uint8) bool {
		s, _ := NewStore(Config{Slots: 1 << 10})
		k := key(7)
		var total, prev uint64
		for _, d := range deltas {
			s.Increment(k, uint64(d), 2)
			total += uint64(d)
			got, _ := s.Query(k, 2)
			if got < prev || got < total {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStoreOverSharedBuffer(t *testing.T) {
	cfg := Config{Slots: 64}
	buf := make([]byte, cfg.BufferSize())
	s, err := NewStoreOver(cfg, buf)
	if err != nil {
		t.Fatal(err)
	}
	s.Increment(key(3), 10, 1)
	// A second view over the same buffer sees the counter.
	s2, _ := NewStoreOver(cfg, buf)
	if got, _ := s2.Query(key(3), 1); got != 10 {
		t.Errorf("shared view = %d, want 10", got)
	}
	if _, err := NewStoreOver(cfg, buf[:10]); err == nil {
		t.Error("short buffer accepted")
	}
}

func BenchmarkIncrementN2(b *testing.B) {
	s, _ := NewStore(Config{Slots: 1 << 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Increment(key(uint64(i)), 1, 2)
	}
}

func BenchmarkQueryN2(b *testing.B) {
	s, _ := NewStore(Config{Slots: 1 << 20})
	for i := 0; i < 1<<16; i++ {
		s.Increment(key(uint64(i)), 1, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(key(uint64(i%(1<<16))), 2)
	}
}

func TestRaiseNeverLowers(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 10})
	k := key(7)
	if err := s.Increment(k, 10, 2); err != nil {
		t.Fatal(err)
	}
	// Raising below the current value is a no-op.
	if err := s.Raise(k, 3, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Query(k, 2); got != 10 {
		t.Errorf("count after low raise = %d, want 10", got)
	}
	// Raising above lifts every slot to exactly the bound.
	if err := s.Raise(k, 25, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Query(k, 2); got != 25 {
		t.Errorf("count after raise = %d, want 25", got)
	}
	// A colliding key whose slot was already higher is untouched: Raise
	// preserves the never-undercount guarantee for everyone else.
	other := key(9)
	if err := s.Increment(other, 100, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Raise(k, 50, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Query(other, 2); got < 100 {
		t.Errorf("colliding key undercounts after raise: %d", got)
	}
	if err := s.Raise(k, 1, 0); err == nil {
		t.Error("redundancy 0 accepted")
	}
}

// TestTouchOnlyReads pins the planned-read entries: Plan refuses an
// out-of-range n before it computes any index, QueryAt over a plan is
// Query, and neither it nor Touch writes a byte of the store.
func TestTouchOnlyReads(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 10})
	for i := uint64(0); i < 600; i++ {
		if err := s.Increment(key(i), i+1, 2); err != nil {
			t.Fatal(err)
		}
	}
	before := bytes.Clone(s.Buffer())
	var buf [MaxRedundancy]uint64
	for _, n := range []int{-1, 0, MaxRedundancy + 1} {
		if slots, err := s.Indexer().Plan(key(1), n, buf[:0]); err == nil || len(slots) != 0 {
			t.Errorf("Plan(n=%d) = %v, %v: want no index and an error", n, slots, err)
		}
	}
	for i := uint64(0); i < 1200; i++ { // the upper half was never incremented
		n := 1 + int(i%MaxRedundancy)
		slots, err := s.Indexer().Plan(key(i), n, buf[:0])
		if err != nil || len(slots) != n {
			t.Fatalf("Plan(n=%d) = %v, %v", n, slots, err)
		}
		s.Touch(slots)
		want, err := s.Query(key(i), n)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.QueryAt(slots); got != want {
			t.Fatalf("key %d n=%d: QueryAt %d, Query %d", i, n, got, want)
		}
	}
	if !bytes.Equal(before, s.Buffer()) {
		t.Fatal("a planned read wrote to the store")
	}
}

// slotPolys is the slot family's polynomials in member order.
var slotPolys = []crc.Params{crc.IEEE, crc.Castagnoli, crc.Koopman, crc.Koopman2, crc.Q, crc.AUTOSAR, crc.CDROMEDC, crc.XFER}

// TestPlanMatchesSlicingReference holds the one-pass plan (one kernel
// call for the n counters) to the plan of n slicing-by-8 CRCs over the
// key's bytes (Engine.Sum), on the read side's Plan and the write
// side's PlanWrite, for every n. 2^32 counters keep every hash bit.
func TestPlanMatchesSlicingReference(t *testing.T) {
	x, err := NewIndexer(Config{Slots: 1 << 32})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(5))
	for range 300 {
		var k wire.Key
		rnd.Read(k[:])
		for n := 1; n <= MaxRedundancy; n++ {
			slots, err := x.Plan(k, n, nil)
			wslots := x.PlanWrite(&k, n, nil)
			if err != nil || len(slots) != n || len(wslots) != n {
				t.Fatalf("n=%d key %x: Plan %v %v, PlanWrite %v", n, k[:], slots, err, wslots)
			}
			for i, p := range slotPolys[:n] {
				if want := crc.New(p).Sum(k[:]); slots[i] != uint64(want) || wslots[i] != want {
					t.Fatalf("n=%d key %x counter %d: Plan %#x, PlanWrite %#x, %s %#x",
						n, k[:], i, slots[i], wslots[i], p.Name, want)
				}
			}
		}
	}
}
