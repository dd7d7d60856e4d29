package crc

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"unsafe"
)

// allParams is every polynomial this package configures: the eight-member
// slot-hash pool plus the two reserved checksum polynomials (D, K32K).
func allParams() []Params {
	out := make([]Params, 0, len(polyPool)+2)
	out = append(out, polyPool...)
	return append(out, D, K32K)
}

// check16 holds every 16-byte path to the byte-at-a-time reference on
// key: each engine's slicing Sum128, its kernel Sum128 and, for every
// prefix length 1–10 of fam (all ten engines in allParams order), one
// kernel call over that prefix. The kernel is called directly, not
// through the CPU gate, so both paths run on any amd64 CPU with
// PCLMULQDQ.
func check16(t *testing.T, fam *Family, key *[16]byte) {
	t.Helper()
	var want [10]uint32
	for i, e := range fam.engines {
		want[i] = e.sumBytewise(key[:])
		if got := e.sum128Slicing(key); got != want[i] {
			t.Fatalf("%s: slicing Sum128(%x) = %#x, bytewise = %#x", e.Name(), key[:], got, want[i])
		}
	}
	if !haveCLMUL {
		return
	}
	for i, e := range fam.engines {
		var got uint32
		clmul16(key, &e.k, 1, &got)
		if got != want[i] {
			t.Fatalf("%s: kernel Sum128(%x) = %#x, bytewise = %#x", e.Name(), key[:], got, want[i])
		}
	}
	for m := 1; m <= len(fam.engines); m++ {
		var out [11]uint32
		for i := range out {
			out[i] = 0xdeadbeef
		}
		clmul16(key, &fam.k[0], m, &out[0])
		for i := range m {
			if out[i] != want[i] {
				t.Fatalf("prefix %d: member %d (%s) of %x = %#x, bytewise = %#x", m, i, fam.engines[i].Name(), key[:], out[i], want[i])
			}
		}
		for i := m; i < len(out); i++ {
			if out[i] != 0xdeadbeef {
				t.Fatalf("prefix %d wrote out[%d]", m, i)
			}
		}
	}
}

// checkRot holds Sum128Rot to the byte-at-a-time reference over the
// byte-rotated key, for every n in 1–16, by each path: through the CPU
// gate, the slicing fallback and, where the CPU has carry-less multiply,
// the stub called directly. None may write past out[n-1].
func checkRot(t *testing.T, e *Engine, key *[16]byte) {
	t.Helper()
	var want [16]uint32
	for h := range want {
		var rot [16]byte
		for i := range rot {
			rot[i] = key[(i+h)%16]
		}
		want[h] = e.sumBytewise(rot[:])
	}
	paths := map[string]func(n int, out *[17]uint32){
		"gated":   func(n int, out *[17]uint32) { e.Sum128Rot(key, out[:n]) },
		"slicing": func(n int, out *[17]uint32) { e.sum128RotSlicing(key, out[:n]) },
	}
	if haveCLMUL {
		paths["kernel"] = func(n int, out *[17]uint32) { clmul16rot(key, &e.k, n, &out[0]) }
	}
	for name, sum := range paths {
		for n := 1; n <= 16; n++ {
			var got [17]uint32
			for i := range got {
				got[i] = 0xdeadbeef
			}
			sum(n, &got)
			for h := range n {
				if got[h] != want[h] {
					t.Fatalf("%s: %s Sum128Rot(%x) hop %d of %d = %#x, bytewise = %#x", e.Name(), name, key[:], h, n, got[h], want[h])
				}
			}
			for i := n; i < len(got); i++ {
				if got[i] != 0xdeadbeef {
					t.Fatalf("%s: %s Sum128Rot over %d hops wrote out[%d]", e.Name(), name, n, i)
				}
			}
		}
	}
}

// TestSum128RotMatchesBytewise holds every engine's rotated-key sums
// (checkRot) to the byte-wise CRC of each rotation, on the edge keys,
// every one-bit key and random keys.
func TestSum128RotMatchesBytewise(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for _, p := range allParams() {
		e := New(p)
		var key [16]byte
		checkRot(t, e, &key)
		for i := range key {
			key[i] = 0xff
		}
		checkRot(t, e, &key)
		for bit := range 128 {
			key = [16]byte{}
			key[bit/8] = 1 << (bit % 8)
			checkRot(t, e, &key)
		}
		for range 200 {
			rnd.Read(key[:])
			checkRot(t, e, &key)
		}
	}
}

// TestSlicingMatchesBytewise differentially checks the slicing-by-8 fast
// path against the byte-at-a-time reference for all 10 pool/reserved
// polynomials on random inputs of every length 0–64 (crossing the 8-byte
// slicing boundary at every alignment), plus a long buffer, and every
// 16-byte path (check16) on random keys and the edge keys.
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
	fam := familyOf(allParams())
	var key [16]byte
	check16(t, fam, &key)
	for i := range key {
		key[i] = 0xff
	}
	check16(t, fam, &key)
	for bit := range 128 {
		key = [16]byte{}
		key[bit/8] = 1 << (bit % 8)
		check16(t, fam, &key)
	}
	for range 2000 {
		rnd.Read(key[:])
		check16(t, fam, &key)
	}
}

// FuzzSlicingMatchesBytewise lets the fuzzer search for inputs where the
// slicing-by-8 path and the byte-wise engine disagree, across every
// configured polynomial. For inputs of 16 bytes or more it also checks
// every 16-byte path (check16), each engine's rotated-key sums over the
// first 16 (checkRot) and each engine's affine walk over them.
func FuzzSlicingMatchesBytewise(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("123456789"))
	f.Add(make([]byte, 7))
	f.Add(make([]byte, 8))
	f.Add(make([]byte, 9))
	f.Add(make([]byte, 64))
	f.Add(make([]byte, 16))
	fam := familyOf(allParams())
	walks := make([]*Walk16, 0, 10)
	for _, e := range fam.engines {
		walks = append(walks, NewWalk16(e.sum128Slicing))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		for i, e := range fam.engines {
			if got, want := e.Sum(data), e.sumBytewise(data); got != want {
				t.Fatalf("%s: Sum(len=%d) = %#x, bytewise = %#x", e.Name(), len(data), got, want)
			}
			if len(data) >= 16 {
				if got, want := walks[i].Sum((*[16]byte)(data)), e.sumBytewise(data[:16]); got != want {
					t.Fatalf("%s: walk(%x) = %#x, bytewise = %#x", e.Name(), data[:16], got, want)
				}
				checkRot(t, e, (*[16]byte)(data))
			}
		}
		if len(data) >= 16 {
			check16(t, fam, (*[16]byte)(data))
		}
	})
}

// TestSum128MatchesStdlib holds both 16-byte paths to hash/crc32 for the
// three polynomials it implements.
func TestSum128MatchesStdlib(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, p := range []Params{IEEE, Castagnoli, Koopman} {
		e, tab := New(p), crc32.MakeTable(p.Poly)
		for range 256 {
			var key [16]byte
			rnd.Read(key[:])
			want := crc32.Checksum(key[:], tab)
			if got := e.Sum128(&key); got != want {
				t.Fatalf("%s: Sum128(%x) = %#x, hash/crc32 = %#x", p.Name, key[:], got, want)
			}
			if got := e.sum128Slicing(&key); got != want {
				t.Fatalf("%s: slicing Sum128(%x) = %#x, hash/crc32 = %#x", p.Name, key[:], got, want)
			}
		}
	}
}

// TestKernelConstants pins the derivation to the IEEE constants that
// hash/crc32's crc32_amd64.s carries (r4r3's high word, r5, rupoly),
// and the kernel's layout to the offsets the stub reads.
func TestKernelConstants(t *testing.T) {
	k := New(IEEE).k
	if k.r4 != 0x0ccaa009e || k.r5 != 0x163cd6124 || k.p != 0x1db710641 || k.mu != 0x1f7011641 {
		t.Errorf("IEEE kernel = r4 %#x r5 %#x p %#x mu %#x, want 0xccaa009e 0x163cd6124 0x1db710641 0x1f7011641", k.r4, k.r5, k.p, k.mu)
	}
	if k.c0 != New(IEEE).sumBytewise(make([]byte, 16)) {
		t.Errorf("IEEE c0 = %#x is not the CRC of the zero key", k.c0)
	}
	var z kernel
	if unsafe.Sizeof(z) != 40 || unsafe.Offsetof(z.r5) != 8 || unsafe.Offsetof(z.p) != 16 ||
		unsafe.Offsetof(z.mu) != 24 || unsafe.Offsetof(z.c0) != 32 {
		t.Errorf("kernel layout drifted from the stub's offsets (size %d)", unsafe.Sizeof(z))
	}
}

// TestFamilySum128 holds Family.Sum128, through the CPU gate, to
// Hash16 per member, and MustFamilyAfter to its lead plus the pool.
func TestFamilySum128(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	f := MustFamilyAfter(D, 8)
	pool := MustFamily(8)
	for range 64 {
		var key [16]byte
		rnd.Read(key[:])
		var out [9]uint32
		f.Sum128(&key, out[:])
		if out[0] != New(D).Sum(key[:]) {
			t.Fatalf("member 0 of %x is not CRC-32D", key[:])
		}
		for i := range 8 {
			if out[i+1] != pool.Hash16(i, &key) || out[i+1] != f.Hash16(i+1, &key) {
				t.Fatalf("member %d of %x = %#x, pool member %d = %#x", i+1, key[:], out[i+1], i, pool.Hash16(i, &key))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFamilyAfter with a pool polynomial did not panic")
		}
	}()
	MustFamilyAfter(Castagnoli, 2)
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

// BenchmarkSum128 hashes 4 096 pre-generated keys per pass, by the
// kernel and by slicing-by-8, one engine (Sum128) and three engines per
// key (Key-Write's checksum plus two slots: one Family.Sum128 call, or
// three slicing Sum128s over 24 KiB of tables), and a key's five hop
// rotations under one engine (Postcarding's hop checksums at B = 5: one
// Sum128Rot call, or five slicing Sum128s over byte-rotated copies).
func BenchmarkSum128(b *testing.B) {
	keys := make([][16]byte, 4096)
	rnd := rand.New(rand.NewSource(1))
	for i := range keys {
		rnd.Read(keys[i][:])
	}
	e := New(IEEE)
	fam := MustFamilyAfter(D, 2)
	var sink uint32
	b.Run("kernel", func(b *testing.B) {
		if !haveCLMUL {
			b.Skip("no carry-less multiply")
		}
		b.ReportAllocs()
		for i := range b.N {
			var out uint32
			clmul16(&keys[i&4095], &e.k, 1, &out)
			sink += out
		}
	})
	b.Run("slicing", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			sink += e.sum128Slicing(&keys[i&4095])
		}
	})
	b.Run("kernel-x3", func(b *testing.B) {
		if !haveCLMUL {
			b.Skip("no carry-less multiply")
		}
		b.ReportAllocs()
		for i := range b.N {
			var out [3]uint32
			clmul16(&keys[i&4095], &fam.k[0], 3, &out[0])
			sink += out[0] ^ out[1] ^ out[2]
		}
	})
	b.Run("slicing-x3", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			k := &keys[i&4095]
			sink += fam.engines[0].sum128Slicing(k) ^ fam.engines[1].sum128Slicing(k) ^ fam.engines[2].sum128Slicing(k)
		}
	})
	b.Run("rot-5", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			var out [5]uint32
			e.Sum128Rot(&keys[i&4095], out[:])
			sink += out[0] ^ out[4]
		}
	})
	b.Run("rot-5-slicing", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			var out [5]uint32
			e.sum128RotSlicing(&keys[i&4095], out[:])
			sink += out[0] ^ out[4]
		}
	})
	_ = sink
}
