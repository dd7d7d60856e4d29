package keywrite

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dta/internal/wire"
)

func mustStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func key(v uint64) wire.Key { return wire.KeyFromUint64(v) }

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Slots: 0, DataSize: 4},
		{Slots: 100, DataSize: 4}, // not a power of two
		{Slots: 64, DataSize: 0},
		{Slots: 64, DataSize: wire.MaxData + 1},
		{Slots: 64, DataSize: 4, ChecksumBits: 33},
	}
	for _, c := range bad {
		if _, err := NewStore(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if _, err := NewStore(Config{Slots: 64, DataSize: 4}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestWriteThenQuery(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 12, DataSize: 4})
	data := []byte{1, 2, 3, 4}
	for _, n := range []int{1, 2, 4, 8} {
		k := key(uint64(n) * 1000)
		if err := s.Write(k, data, n); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(k, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || !bytes.Equal(res.Data, data) {
			t.Errorf("N=%d: %+v", n, res)
		}
		if res.Matches != n || res.Agreements != n {
			t.Errorf("N=%d: matches=%d agreements=%d", n, res.Matches, res.Agreements)
		}
	}
}

func TestQueryMissingKey(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 12, DataSize: 4})
	res, err := s.Query(key(42), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// An empty store holds zero checksums; a fresh key's checksum is
	// overwhelmingly unlikely to be zero, so the query comes back empty.
	if res.Found {
		t.Errorf("found value for never-written key: %+v", res)
	}
}

func TestRedundancyValidation(t *testing.T) {
	s := mustStore(t, Config{Slots: 64, DataSize: 4})
	if err := s.Write(key(1), []byte{1}, 0); err == nil {
		t.Error("redundancy 0 accepted")
	}
	if err := s.Write(key(1), []byte{1}, MaxRedundancy+1); err == nil {
		t.Error("redundancy 9 accepted")
	}
	if _, err := s.Query(key(1), 0, 1); err == nil {
		t.Error("query redundancy 0 accepted")
	}
}

func TestShortDataZeroPadded(t *testing.T) {
	s := mustStore(t, Config{Slots: 64, DataSize: 8})
	if err := s.Write(key(5), []byte{0xaa}, 1); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Query(key(5), 1, 1)
	want := []byte{0xaa, 0, 0, 0, 0, 0, 0, 0}
	if !res.Found || !bytes.Equal(res.Data, want) {
		t.Errorf("got %v, want %v", res.Data, want)
	}
}

func TestOverwriteSameKeyUpdates(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 10, DataSize: 4})
	k := key(7)
	s.Write(k, []byte{1, 1, 1, 1}, 2)
	s.Write(k, []byte{2, 2, 2, 2}, 2)
	res, _ := s.Query(k, 2, 1)
	if !res.Found || !bytes.Equal(res.Data, []byte{2, 2, 2, 2}) {
		t.Errorf("got %+v, want updated value", res)
	}
}

func TestPartialOverwriteStillAnswers(t *testing.T) {
	// Overwrite exactly one of the two slots with another key's data;
	// the surviving replica must still answer.
	s := mustStore(t, Config{Slots: 1 << 10, DataSize: 4})
	k := key(1234)
	s.Write(k, []byte{9, 9, 9, 9}, 2)
	// Forge an overwrite of slot 0 by writing a conflicting image
	// directly (as a colliding key's RDMA write would).
	s.writeSlot(s.Slot(0, k), 0xdeadbeef, []byte{0, 0, 0, 0})
	res, _ := s.Query(k, 2, 1)
	if !res.Found || !bytes.Equal(res.Data, []byte{9, 9, 9, 9}) {
		t.Errorf("got %+v, want survivor answer", res)
	}
	if res.Matches != 1 {
		t.Errorf("matches = %d, want 1", res.Matches)
	}
}

func TestConsensusThreshold(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 10, DataSize: 4})
	k := key(55)
	s.Write(k, []byte{5, 5, 5, 5}, 2)
	s.writeSlot(s.Slot(0, k), 0x11111111, []byte{0, 0, 0, 0})
	// One surviving replica: plurality (T=1) answers, consensus T=2 does not.
	if res, _ := s.Query(k, 2, 1); !res.Found {
		t.Error("T=1 should answer with one survivor")
	}
	if res, _ := s.Query(k, 2, 2); res.Found {
		t.Error("T=2 answered with a single survivor")
	}
}

func TestConflictingCandidatesTie(t *testing.T) {
	// Two slots both carry our checksum but different values (forged
	// collision): a 1-1 tie must return empty rather than guess.
	s := mustStore(t, Config{Slots: 1 << 10, DataSize: 4})
	k := key(77)
	csum := s.Indexer().Checksum(k)
	s.writeSlot(s.Slot(0, k), csum, []byte{1, 0, 0, 0})
	s.writeSlot(s.Slot(1, k), csum, []byte{2, 0, 0, 0})
	res, _ := s.Query(k, 2, 1)
	if res.Found {
		t.Errorf("tie returned a value: %+v", res)
	}
	if res.Matches != 2 {
		t.Errorf("matches = %d, want 2", res.Matches)
	}
}

func TestMajorityBeatsMinority(t *testing.T) {
	// Three candidates: two agree, one differs — the pair wins.
	s := mustStore(t, Config{Slots: 1 << 10, DataSize: 4})
	k := key(88)
	csum := s.Indexer().Checksum(k)
	s.writeSlot(s.Slot(0, k), csum, []byte{1, 0, 0, 0})
	s.writeSlot(s.Slot(1, k), csum, []byte{1, 0, 0, 0})
	s.writeSlot(s.Slot(2, k), csum, []byte{2, 0, 0, 0})
	res, _ := s.Query(k, 3, 1)
	if !res.Found || res.Data[0] != 1 || res.Agreements != 2 {
		t.Errorf("got %+v, want majority value 1", res)
	}
}

func TestSlotDistributionAcrossN(t *testing.T) {
	// The N slots of one key should be distinct almost always, and
	// different keys should spread across the store.
	s := mustStore(t, Config{Slots: 1 << 14, DataSize: 4})
	dup := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		k := key(uint64(i))
		seen := map[uint64]bool{}
		for n := 0; n < 4; n++ {
			sl := s.Slot(n, k)
			if sl >= 1<<14 {
				t.Fatalf("slot %d out of range", sl)
			}
			if seen[sl] {
				dup++
			}
			seen[sl] = true
		}
	}
	// Expected self-collisions ≈ keys * C(4,2)/slots ≈ 0.7; allow slack.
	if dup > 10 {
		t.Errorf("%d self-collisions across %d keys", dup, keys)
	}
}

func TestIndexerDeterminism(t *testing.T) {
	cfg := Config{Slots: 1 << 16, DataSize: 4}
	a, _ := NewIndexer(cfg)
	b, _ := NewIndexer(cfg)
	f := func(kv uint64, n uint8) bool {
		k := key(kv)
		i := int(n % MaxRedundancy)
		return a.Slot(i, k) == b.Slot(i, k) && a.Checksum(k) == b.Checksum(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumMasking(t *testing.T) {
	for _, b := range []int{1, 8, 16, 31} {
		x, err := NewIndexer(Config{Slots: 64, DataSize: 4, ChecksumBits: b})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 100; i++ {
			if c := x.Checksum(key(i)); c >= 1<<uint(b) {
				t.Fatalf("b=%d: checksum %#x exceeds width", b, c)
			}
		}
	}
}

func TestNewStoreOver(t *testing.T) {
	cfg := Config{Slots: 64, DataSize: 4}
	if _, err := NewStoreOver(cfg, make([]byte, cfg.BufferSize()-1)); err != ErrShortBuffer {
		t.Errorf("short buffer: err = %v", err)
	}
	buf := make([]byte, cfg.BufferSize()+10)
	s, err := NewStoreOver(cfg, buf)
	if err != nil {
		t.Fatal(err)
	}
	s.Write(key(3), []byte{1, 2, 3, 4}, 1)
	// The write landed in the provided buffer.
	if bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("provided buffer untouched")
	}
}

// simulateSuccess writes `loaded` random keys after a tracked key and
// reports whether the tracked key is still queryable.
func simulateSuccess(t *testing.T, s *Store, rnd *rand.Rand, n int, loaded int) bool {
	t.Helper()
	tracked := key(rnd.Uint64())
	want := make([]byte, 4)
	rnd.Read(want)
	s.Write(tracked, want, n)
	var buf [8]byte
	data := []byte{0xff, 0xff, 0xff, 0xff}
	for i := 0; i < loaded; i++ {
		binary.BigEndian.PutUint64(buf[:], rnd.Uint64())
		var k wire.Key
		copy(k[:], buf[:])
		k[15] = 1 // never equals tracked (tracked has k[15]=0... ensure distinct space)
		s.Write(k, data, n)
	}
	res, _ := s.Query(tracked, n, 1)
	return res.Found && bytes.Equal(res.Data, want)
}

func TestEmpiricalSuccessMatchesEstimate(t *testing.T) {
	// Fig. 12's underlying relationship: success rate vs load factor α
	// for different N, compared against the analytic estimate.
	const slots = 1 << 12
	rnd := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 4} {
		for _, alpha := range []float64{0.1, 0.4, 0.8} {
			const trials = 120
			ok := 0
			for trial := 0; trial < trials; trial++ {
				s := mustStore(t, Config{Slots: slots, DataSize: 4})
				if simulateSuccess(t, s, rnd, n, int(alpha*slots)) {
					ok++
				}
			}
			got := float64(ok) / trials
			want := QuerySuccessEstimate(alpha, n)
			if math.Abs(got-want) > 0.12 {
				t.Errorf("N=%d α=%.1f: empirical %.2f vs estimate %.2f", n, alpha, got, want)
			}
		}
	}
}

func TestPaperWorkedExample(t *testing.T) {
	// §4: "if N=2, b=32, α=0.1, the chance of not providing the output is
	// less than 3.3%, while the probability of wrong output is bounded by
	// 1.6·10⁻¹¹", and N=1 gives 9.5%, N=4 gives 1.2%.
	if p := EmptyReturnBound(0.1, 2, 32); p > 0.033 || p < 0.02 {
		t.Errorf("empty-return bound N=2 = %v, want ≈0.033", p)
	}
	if p := WrongOutputBound(0.1, 2, 32); p > 1.6e-11 || p < 1e-12 {
		t.Errorf("wrong-output bound N=2 = %v, want ≈1.6e-11", p)
	}
	if p := EmptyReturnBound(0.1, 1, 32); math.Abs(p-0.095) > 0.005 {
		t.Errorf("empty-return bound N=1 = %v, want ≈0.095", p)
	}
	if p := EmptyReturnBound(0.1, 4, 32); math.Abs(p-0.012) > 0.002 {
		t.Errorf("empty-return bound N=4 = %v, want ≈0.012", p)
	}
}

func TestBoundsAreProbabilities(t *testing.T) {
	f := func(a uint8, n uint8, b uint8) bool {
		alpha := float64(a%100) / 50.0 // 0..2
		nn := int(n%8) + 1
		bb := int(b%32) + 1
		p1 := EmptyReturnBound(alpha, nn, bb)
		p2 := WrongOutputBound(alpha, nn, bb)
		return p1 >= -1e-12 && p1 <= 1+1e-9 && p2 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWrongOutputNeverExceedsEmpiricalWithSmallChecksum(t *testing.T) {
	// With a tiny checksum (b=8) wrong outputs become observable; the
	// empirical rate must stay within a small factor of the bound.
	const slots = 1 << 10
	const n = 2
	rnd := rand.New(rand.NewSource(7))
	wrong, trials := 0, 4000
	alpha := 1.0
	for trial := 0; trial < trials; trial++ {
		s := mustStore(t, Config{Slots: slots, DataSize: 4, ChecksumBits: 8})
		tracked := key(rnd.Uint64())
		want := []byte{1, 2, 3, 4}
		s.Write(tracked, want, n)
		other := []byte{9, 9, 9, 9}
		for i := 0; i < int(alpha*slots); i++ {
			s.Write(key(rnd.Uint64()|1<<63), other, n)
		}
		res, _ := s.Query(tracked, n, 1)
		if res.Found && !bytes.Equal(res.Data, want) {
			wrong++
		}
	}
	got := float64(wrong) / float64(trials)
	bound := WrongOutputBound(alpha, n, 8)
	// The bound is an upper bound on the probability; sampling noise at
	// 4000 trials is ~3σ ≈ 0.003 for p≈bound.
	if got > bound+0.005 {
		t.Errorf("empirical wrong-output %.4f exceeds bound %.4f", got, bound)
	}
}

func TestOptimalRedundancyShape(t *testing.T) {
	// Fig. 12: at low load high N wins; at very high load N=1 wins.
	if n := OptimalRedundancy(0.05, 8); n < 4 {
		t.Errorf("optimal N at α=0.05 = %d, want ≥4", n)
	}
	if n := OptimalRedundancy(1.0, 8); n != 1 {
		t.Errorf("optimal N at α=1.0 = %d, want 1", n)
	}
	// Monotone switch: once N=1 is optimal it stays optimal for larger α.
	prev := 8
	for alpha := 0.05; alpha <= 1.5; alpha += 0.05 {
		n := OptimalRedundancy(alpha, 8)
		if n > prev {
			t.Fatalf("optimal N increased from %d to %d at α=%.2f", prev, n, alpha)
		}
		prev = n
	}
}

func TestAgeToAlpha(t *testing.T) {
	if a := AgeToAlpha(100, 1000); a != 0.1 {
		t.Errorf("AgeToAlpha = %v, want 0.1", a)
	}
	if a := AgeToAlpha(1, 0); !math.IsInf(a, 1) {
		t.Errorf("AgeToAlpha with zero slots = %v, want +Inf", a)
	}
}

func TestQueryNoAllocs(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 12, DataSize: 20})
	k := key(5)
	s.Write(k, bytes.Repeat([]byte{7}, 20), 4)
	allocs := testing.AllocsPerRun(200, func() {
		res, err := s.Query(k, 4, 1)
		if err != nil || !res.Found {
			t.Fatal("query failed")
		}
	})
	if allocs != 0 {
		t.Errorf("Query allocates %v per call", allocs)
	}
}

func BenchmarkWriteN1(b *testing.B) { benchWrite(b, 1) }
func BenchmarkWriteN2(b *testing.B) { benchWrite(b, 2) }
func BenchmarkWriteN4(b *testing.B) { benchWrite(b, 4) }

func benchWrite(b *testing.B, n int) {
	s, _ := NewStore(Config{Slots: 1 << 20, DataSize: 4})
	data := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Write(key(uint64(i)), data, n)
	}
}

func BenchmarkQueryN2(b *testing.B) {
	s, _ := NewStore(Config{Slots: 1 << 20, DataSize: 4})
	data := []byte{1, 2, 3, 4}
	for i := 0; i < 1<<18; i++ {
		s.Write(key(uint64(i)), data, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(key(uint64(i%(1<<18))), 2, 1)
	}
}

// TestTouchOnlyReads pins the planned-read entries: Plan refuses an
// out-of-range n before it computes any index, QueryAt over a plan is
// Query, and neither it nor Touch writes a byte of the store.
func TestTouchOnlyReads(t *testing.T) {
	s := mustStore(t, Config{Slots: 1 << 10, DataSize: 4, ChecksumBits: 16})
	for i := uint64(0); i < 600; i++ {
		if err := s.Write(key(i), []byte{byte(i), byte(i >> 8), 3, 4}, 2); err != nil {
			t.Fatal(err)
		}
	}
	before := bytes.Clone(s.Buffer())
	var buf [MaxRedundancy]uint64
	for _, n := range []int{-1, 0, MaxRedundancy + 1} {
		if slots, _, err := s.Indexer().Plan(key(1), n, buf[:0]); err == nil || len(slots) != 0 {
			t.Errorf("Plan(n=%d) = %v, %v: want no index and an error", n, slots, err)
		}
	}
	for i := uint64(0); i < 1200; i++ { // the upper half was never written
		n := 1 + int(i%MaxRedundancy)
		slots, csum, err := s.Indexer().Plan(key(i), n, buf[:0])
		if err != nil || len(slots) != n {
			t.Fatalf("Plan(n=%d) = %v, %v", n, slots, err)
		}
		s.Touch(slots)
		want, err := s.Query(key(i), n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.QueryAt(csum, slots, 1); got.Found != want.Found || !bytes.Equal(got.Data, want.Data) ||
			got.Matches != want.Matches || got.Agreements != want.Agreements {
			t.Fatalf("key %d n=%d: QueryAt %+v, Query %+v", i, n, got, want)
		}
	}
	if !bytes.Equal(before, s.Buffer()) {
		t.Fatal("a planned read wrote to the store")
	}
}
