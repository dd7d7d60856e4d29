package crc

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIEEEMatchesStdlib(t *testing.T) {
	e := New(IEEE)
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("123456789"),
		[]byte("The quick brown fox jumps over the lazy dog"),
		make([]byte, 1024),
	}
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(cases[4])
	for _, c := range cases {
		if got, want := e.Sum(c), crc32.ChecksumIEEE(c); got != want {
			t.Errorf("IEEE(%q) = %#x, want %#x", c, got, want)
		}
	}
}

func TestCastagnoliMatchesStdlib(t *testing.T) {
	e := New(Castagnoli)
	tab := crc32.MakeTable(crc32.Castagnoli)
	buf := make([]byte, 333)
	rnd := rand.New(rand.NewSource(2))
	rnd.Read(buf)
	for i := 0; i <= len(buf); i += 37 {
		if got, want := e.Sum(buf[:i]), crc32.Checksum(buf[:i], tab); got != want {
			t.Fatalf("Castagnoli(len=%d) = %#x, want %#x", i, got, want)
		}
	}
}

func TestKnownCheckValues(t *testing.T) {
	// "Check" values from the reveng CRC catalogue (input "123456789").
	in := []byte("123456789")
	checks := []struct {
		p    Params
		want uint32
	}{
		{IEEE, 0xcbf43926},
		{Castagnoli, 0xe3069283},
	}
	for _, c := range checks {
		if got := New(c.p).Sum(in); got != c.want {
			t.Errorf("%s check = %#x, want %#x", c.p.Name, got, c.want)
		}
	}
}

func TestSum64MatchesSumOfEncoding(t *testing.T) {
	f := func(v uint64) bool {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v)
		e := New(Castagnoli)
		return e.Sum64(v) == e.Sum(buf[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSum64PairMatchesConcatenation(t *testing.T) {
	f := func(a, b uint64) bool {
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], a)
		binary.BigEndian.PutUint64(buf[8:], b)
		e := New(Koopman)
		return e.Sum64Pair(a, b) == e.Sum(buf[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFamilySizeValidation(t *testing.T) {
	for _, n := range []int{0, -1, 9, 100} {
		if _, err := NewFamily(n); err == nil {
			t.Errorf("NewFamily(%d) succeeded, want error", n)
		}
	}
	for n := 1; n <= 8; n++ {
		f, err := NewFamily(n)
		if err != nil {
			t.Fatalf("NewFamily(%d): %v", n, err)
		}
		if f.Size() != n {
			t.Errorf("Size = %d, want %d", f.Size(), n)
		}
	}
}

func TestFamilyMembersDisagree(t *testing.T) {
	// Independent hash functions must not be identical: across many keys
	// every pair of family members should disagree on most inputs.
	f := MustFamily(8)
	const keys = 1000
	for i := 0; i < f.Size(); i++ {
		for j := i + 1; j < f.Size(); j++ {
			same := 0
			for k := uint64(0); k < keys; k++ {
				if f.engines[i].Sum64(k) == f.engines[j].Sum64(k) {
					same++
				}
			}
			if same > keys/100 {
				t.Errorf("members %d and %d agree on %d/%d keys", i, j, same, keys)
			}
		}
	}
}

func TestFamilyMembersNotAffinelyRelated(t *testing.T) {
	// CRC is linear: two engines with the same polynomial differ only by
	// a constant, i.e. h_i(k) XOR h_j(k) is the same for every k — which
	// would destroy redundancy. Verify the XOR difference varies.
	f := MustFamily(8)
	reserved := []*Engine{New(D), New(K32K)}
	all := make([]*Engine, 0, 10)
	for i := 0; i < f.Size(); i++ {
		all = append(all, f.engines[i])
	}
	all = append(all, reserved...)
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			diff0 := all[i].Sum64(0) ^ all[j].Sum64(0)
			constant := true
			for k := uint64(1); k < 64; k++ {
				if all[i].Sum64(k)^all[j].Sum64(k) != diff0 {
					constant = false
					break
				}
			}
			if constant {
				t.Errorf("engines %s and %s are affinely related", all[i].Name(), all[j].Name())
			}
		}
	}
}

func TestFamilyUniformity(t *testing.T) {
	// Bucketing sequential keys into 16 buckets by each hash should be
	// roughly uniform (chi-squared well under a generous threshold).
	f := MustFamily(4)
	const keys, buckets = 16000, 16
	for i := 0; i < f.Size(); i++ {
		var counts [buckets]int
		for k := uint64(0); k < keys; k++ {
			counts[f.engines[i].Sum64(k)%buckets]++
		}
		exp := float64(keys) / buckets
		chi := 0.0
		for _, c := range counts {
			d := float64(c) - exp
			chi += d * d / exp
		}
		// 15 dof; p=0.001 critical value is ~37.7. Allow slack.
		if chi > 60 {
			t.Errorf("hash %d chi-squared = %.1f over %d buckets", i, chi, buckets)
		}
	}
}

func TestMustFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFamily(0) did not panic")
		}
	}()
	MustFamily(0)
}

func BenchmarkSum64(b *testing.B) {
	e := New(Castagnoli)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += e.Sum64(uint64(i))
	}
	_ = sink
}

func BenchmarkSum16B(b *testing.B) {
	e := New(IEEE)
	buf := make([]byte, 16)
	b.SetBytes(16)
	var sink uint32
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		sink += e.Sum(buf)
	}
	_ = sink
}
