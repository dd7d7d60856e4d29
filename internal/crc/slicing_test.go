package crc

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// allParams is every polynomial this package configures: the eight-member
// slot-hash pool plus the two reserved checksum polynomials (D, K32K).
func allParams() []Params {
	out := make([]Params, 0, len(polyPool)+2)
	out = append(out, polyPool...)
	return append(out, D, K32K)
}

// TestSlicingMatchesBytewise differentially checks the slicing-by-8 fast
// path against the byte-at-a-time reference for all 10 pool/reserved
// polynomials on random inputs of every length 0–64 (crossing the 8-byte
// slicing boundary at every alignment), plus a long buffer.
func TestSlicingMatchesBytewise(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for _, p := range allParams() {
		e := New(p)
		for ln := 0; ln <= 64; ln++ {
			for trial := 0; trial < 8; trial++ {
				buf := make([]byte, ln)
				rnd.Read(buf)
				if got, want := e.Sum(buf), e.sumBytewise(buf); got != want {
					t.Fatalf("%s: Sum(len=%d) = %#x, bytewise = %#x", p.Name, ln, got, want)
				}
			}
		}
		long := make([]byte, 4096+5)
		rnd.Read(long)
		if got, want := e.Sum(long), e.sumBytewise(long); got != want {
			t.Fatalf("%s: Sum(len=%d) = %#x, bytewise = %#x", p.Name, len(long), got, want)
		}
	}
}

// FuzzSlicingMatchesBytewise lets the fuzzer search for inputs where the
// slicing-by-8 path and the byte-wise engine disagree, across every
// configured polynomial. For inputs of 16 bytes or more it also checks
// each engine's affine walk over the first 16.
func FuzzSlicingMatchesBytewise(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("123456789"))
	f.Add(make([]byte, 7))
	f.Add(make([]byte, 8))
	f.Add(make([]byte, 9))
	f.Add(make([]byte, 64))
	f.Add(make([]byte, 16))
	engines := make([]*Engine, 0, 10)
	walks := make([]*Walk16, 0, 10)
	for _, p := range allParams() {
		e := New(p)
		engines = append(engines, e)
		walks = append(walks, NewWalk16(e.Sum128))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		for i, e := range engines {
			if got, want := e.Sum(data), e.sumBytewise(data); got != want {
				t.Fatalf("%s: Sum(len=%d) = %#x, bytewise = %#x", e.Name(), len(data), got, want)
			}
			if len(data) >= 16 {
				if got, want := walks[i].Sum((*[16]byte)(data)), e.sumBytewise(data[:16]); got != want {
					t.Fatalf("%s: walk(%x) = %#x, bytewise = %#x", e.Name(), data[:16], got, want)
				}
			}
		}
	})
}

func TestSum128MatchesSum(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, p := range allParams() {
		e := New(p)
		for trial := 0; trial < 64; trial++ {
			var key [16]byte
			rnd.Read(key[:])
			if got, want := e.Sum128(&key), e.Sum(key[:]); got != want {
				t.Fatalf("%s: Sum128 = %#x, Sum = %#x", p.Name, got, want)
			}
		}
	}
}

func TestSum64MatchesBytewiseAllPolys(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for _, p := range allParams() {
		e := New(p)
		for trial := 0; trial < 64; trial++ {
			v := rnd.Uint64()
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], v)
			if got, want := e.Sum64(v), e.sumBytewise(buf[:]); got != want {
				t.Fatalf("%s: Sum64(%#x) = %#x, bytewise = %#x", p.Name, v, got, want)
			}
		}
	}
}
