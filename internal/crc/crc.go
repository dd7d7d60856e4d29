// Package crc implements a software model of the CRC engine found in
// programmable switch ASICs such as Intel Tofino.
//
// The Tofino data plane exposes a small number of hardware CRC units whose
// polynomial is configurable per table. DTA (§5.2) derives several
// independent hash functions from the same engine by carefully selecting
// distinct CRC polynomials: one family indexes the N redundant Key-Write
// slots, another computes the 4-byte key checksum, and the per-hop
// Postcarding checksums are that checksum polynomial (CRC-32D) over the
// key rotated by the hop, which makes each hop a distinct linear map of
// the key.
//
// This package provides a reflected CRC-32 parameterised by polynomial,
// initial value and final XOR, plus Family, which bundles several engines
// with distinct polynomials into an indexable set of independent hash
// functions, and Walk16, one table walk for any GF(2)-affine map of a
// 16-byte key. A 16-byte key (Sum128) is hashed by carry-less
// multiplication where the CPU has it (amd64 with PCLMULQDQ), with no
// tables, and a Family evaluates any prefix of its members on one key in
// one kernel call, as Engine.Sum128Rot does every rotation of one key.
// Slicing-by-8 is the fallback there and the only path for other
// lengths.
package crc

import (
	"fmt"
	"math/bits"
	"sync"
)

// Params describes a CRC-32 variant in the reflected (LSB-first) form used
// by essentially all switch CRC engines.
type Params struct {
	// Poly is the reversed (reflected) polynomial representation.
	Poly uint32
	// Init is the initial shift-register value.
	Init uint32
	// XorOut is XORed onto the register after the final byte.
	XorOut uint32
	// Name identifies the variant in diagnostics.
	Name string
}

// Well-known reflected CRC-32 polynomials. CRC is linear over GF(2), so
// two engines share their collision structure exactly when they share a
// polynomial — init/xorout only shift the output by a constant. Distinct
// polynomials therefore yield hash functions with independent collision
// behaviour on network-style keys, which is the property DTA relies on
// for its N-location redundancy and for keeping key checksums independent
// of slot placement.
var (
	// IEEE is the ubiquitous CRC-32 (Ethernet FCS, gzip).
	IEEE = Params{Poly: 0xedb88320, Init: 0xffffffff, XorOut: 0xffffffff, Name: "CRC-32/IEEE"}
	// Castagnoli (CRC-32C) is used by iSCSI and ext4.
	Castagnoli = Params{Poly: 0x82f63b78, Init: 0xffffffff, XorOut: 0xffffffff, Name: "CRC-32C"}
	// Koopman is P. Koopman's polynomial optimised for embedded networks.
	Koopman = Params{Poly: 0xeb31d82e, Init: 0xffffffff, XorOut: 0xffffffff, Name: "CRC-32K"}
	// Koopman2 is Koopman's 2006 polynomial (CRC-32K/2).
	Koopman2 = Params{Poly: 0x992c1a4c, Init: 0xffffffff, XorOut: 0xffffffff, Name: "CRC-32K2"}
	// Q is the aviation CRC-32Q polynomial (reflected form).
	Q = Params{Poly: 0xd5828281, Init: 0, XorOut: 0, Name: "CRC-32Q"}
	// AUTOSAR is the CRC-32/AUTOSAR polynomial 0xf4acfb13 (reflected).
	AUTOSAR = Params{Poly: 0xc8df352f, Init: 0xffffffff, XorOut: 0xffffffff, Name: "CRC-32/AUTOSAR"}
	// CDROMEDC is the CD-ROM EDC polynomial 0x8001801b (reflected).
	CDROMEDC = Params{Poly: 0xd8018001, Init: 0, XorOut: 0, Name: "CRC-32/CD-ROM-EDC"}
	// XFER is the XFER polynomial 0x000000af (reflected).
	XFER = Params{Poly: 0xf5000000, Init: 0, XorOut: 0, Name: "CRC-32/XFER"}

	// D is CRC-32D (poly 0xa833982b reflected). It is reserved for key
	// checksums and deliberately excluded from the slot-hash family: a
	// checksum sharing a polynomial with a slot hash would collide with
	// certainty whenever the slot does, silently voiding DTA's
	// wrong-output guarantees.
	D = Params{Poly: 0xa833982b, Init: 0xffffffff, XorOut: 0xffffffff, Name: "CRC-32D"}
	// K32K is Koopman's 0xba0dc66b polynomial, reserved for value
	// encodings (Postcarding's g) for the same reason as D.
	K32K = Params{Poly: 0xba0dc66b, Init: 0xffffffff, XorOut: 0xffffffff, Name: "CRC-32/K32K"}
)

// polyPool is the ordered pool Family draws from: eight pairwise-distinct
// polynomials covering DTA's maximum redundancy (N ≤ 8). The reserved
// checksum polynomials D and K32K are intentionally absent.
var polyPool = []Params{IEEE, Castagnoli, Koopman, Koopman2, Q, AUTOSAR, CDROMEDC, XFER}

// Engine is a single configured CRC unit. Sum128 runs the
// carry-less-multiply kernel where the CPU has one; everywhere else the
// register update is slicing-by-8: tables[0] is the classic
// byte-at-a-time table and tables[k] advances a byte through k further
// zero bytes, so eight input bytes fold into the register with eight
// independent table reads instead of eight serial ones. Telemetry keys
// are 8 or 16 bytes, so the fallback runs entirely inside the unrolled
// fast path.
type Engine struct {
	tables [8][256]uint32
	k      kernel
	init   uint32
	xorOut uint32
	name   string
}

// kernel is one engine's constants for the carry-less-multiply stub,
// which reads them at these offsets (the stub steps 40 bytes per
// engine). With P the polynomial in normal form and ' a bit reversal:
//
//	r4 = ((x^96 mod P) << 32)' << 1   folds the key's first 8 bytes
//	r5 = ((x^64 mod P) << 32)' << 1   folds 96 bits to 64
//	p  = P' (33 bits), mu = (x^64 / P)' (33 bits)   Barrett reduction
//
// Those give the register of the key from a zero register, which is
// linear in the key; c0, the engine's CRC of the all-zero key, is the
// affine part that init and xorOut add.
type kernel struct {
	r4, r5, p, mu uint64
	c0            uint32
	_             uint32 // the stub's 40-byte stride on every GOARCH
}

// engines holds the one Engine built per Params value. An Engine is
// immutable once built, so every caller configuring the same variant
// shares its 8 KiB of tables.
var engines struct {
	sync.Mutex
	m map[Params]*Engine
}

// New returns the Engine for the given parameters, building it on the
// first call for p and sharing it with every later one.
func New(p Params) *Engine {
	engines.Lock()
	defer engines.Unlock()
	if e, ok := engines.m[p]; ok {
		return e
	}
	if engines.m == nil {
		engines.m = make(map[Params]*Engine)
	}
	e := build(p)
	engines.m[p] = e
	return e
}

// build computes an Engine's tables and kernel constants.
func build(p Params) *Engine {
	e := &Engine{init: p.Init, xorOut: p.XorOut, name: p.Name}
	for i := range e.tables[0] {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = (c >> 1) ^ p.Poly
			} else {
				c >>= 1
			}
		}
		e.tables[0][i] = c
	}
	// tables[k][i] = CRC register after byte i followed by k zero bytes.
	for k := 1; k < 8; k++ {
		for i := range e.tables[k] {
			c := e.tables[k-1][i]
			e.tables[k][i] = e.tables[0][byte(c)] ^ (c >> 8)
		}
	}
	poly := 1<<32 | uint64(bits.Reverse32(p.Poly))
	e.k = kernel{
		r4: bits.Reverse64(xnMod(96, poly)<<32) << 1,
		r5: bits.Reverse64(xnMod(64, poly)<<32) << 1,
		p:  rev33(poly),
		mu: rev33(x64Div(poly)),
		c0: e.sum128Slicing(&[16]byte{}),
	}
	return e
}

// xnMod returns x^n mod poly, poly of degree 32 in normal form.
func xnMod(n int, poly uint64) uint64 {
	r := uint64(1)
	for range n {
		if r <<= 1; r&(1<<32) != 0 {
			r ^= poly
		}
	}
	return r
}

// x64Div returns the quotient of x^64 by poly (degree 32, normal form):
// a polynomial of degree 32.
func x64Div(poly uint64) uint64 {
	r, q := uint64(1), uint64(0)
	for range 64 {
		r <<= 1
		q <<= 1
		if r&(1<<32) != 0 {
			r ^= poly
			q |= 1
		}
	}
	return q
}

// rev33 reverses the low 33 bits of v.
func rev33(v uint64) uint64 { return bits.Reverse64(v) >> 31 }

// Name reports the configured variant name.
func (e *Engine) Name() string { return e.name }

// slice8 folds eight stream-order bytes into the register.
func (e *Engine) slice8(c uint32, b0, b1, b2, b3, b4, b5, b6, b7 byte) uint32 {
	c ^= uint32(b0) | uint32(b1)<<8 | uint32(b2)<<16 | uint32(b3)<<24
	return e.tables[7][byte(c)] ^ e.tables[6][byte(c>>8)] ^
		e.tables[5][byte(c>>16)] ^ e.tables[4][byte(c>>24)] ^
		e.tables[3][b4] ^ e.tables[2][b5] ^ e.tables[1][b6] ^ e.tables[0][b7]
}

// Sum computes the CRC of data.
func (e *Engine) Sum(data []byte) uint32 {
	c := e.init
	for len(data) >= 8 {
		c = e.slice8(c, data[0], data[1], data[2], data[3], data[4], data[5], data[6], data[7])
		data = data[8:]
	}
	for _, b := range data {
		c = e.tables[0][byte(c)^b] ^ (c >> 8)
	}
	return c ^ e.xorOut
}

// sumBytewise is the reference byte-at-a-time implementation. It is kept
// (unexported) so differential tests can pin the slicing-by-8 path to it.
func (e *Engine) sumBytewise(data []byte) uint32 {
	c := e.init
	for _, b := range data {
		c = e.tables[0][byte(c)^b] ^ (c >> 8)
	}
	return c ^ e.xorOut
}

// fold64 folds the 8-byte big-endian encoding of v into the register.
func (e *Engine) fold64(c uint32, v uint64) uint32 {
	return e.slice8(c,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Sum64 computes the CRC of an 8-byte big-endian encoding of v without
// allocating. Switch pipelines hash fixed-width header fields; this is the
// fast path for numeric flow keys.
func (e *Engine) Sum64(v uint64) uint32 {
	return e.fold64(e.init, v) ^ e.xorOut
}

// Sum64Pair hashes two 8-byte values (e.g. a key and a sub-index) as their
// concatenated big-endian encoding.
func (e *Engine) Sum64Pair(a, b uint64) uint32 {
	return e.fold64(e.fold64(e.init, a), b) ^ e.xorOut
}

// Sum128 hashes a 16-byte key (the wire.Key width), equivalent to Sum
// over the same bytes: one kernel call where the CPU has carry-less
// multiply, two unrolled slicing-by-8 rounds elsewhere.
func (e *Engine) Sum128(key *[16]byte) uint32 {
	if haveCLMUL {
		var out uint32
		clmul16(key, &e.k, 1, &out)
		return out
	}
	return e.sum128Slicing(key)
}

// sum128Slicing is Sum128 by slicing-by-8: the fallback, and the
// reference the kernel is tested against.
func (e *Engine) sum128Slicing(key *[16]byte) uint32 {
	c := e.slice8(e.init, key[0], key[1], key[2], key[3], key[4], key[5], key[6], key[7])
	c = e.slice8(c, key[8], key[9], key[10], key[11], key[12], key[13], key[14], key[15])
	return c ^ e.xorOut
}

// Sum128Rot sets out[h] to Sum128 of key rotated by h bytes (byte i of
// the rotation is key[(i+h) mod 16]) for every h below len(out): one
// kernel call for all of them where the CPU has carry-less multiply,
// which loads the key once and rotates it in a register between hops,
// and slicing-by-8 over the byte-rotated key elsewhere.
func (e *Engine) Sum128Rot(key *[16]byte, out []uint32) {
	if len(out) == 0 {
		return
	}
	if haveCLMUL {
		clmul16rot(key, &e.k, len(out), &out[0])
		return
	}
	e.sum128RotSlicing(key, out)
}

// sum128RotSlicing is Sum128Rot by slicing-by-8: the fallback, and a
// reference the kernel is tested against.
func (e *Engine) sum128RotSlicing(key *[16]byte, out []uint32) {
	var twice [32]byte
	copy(twice[:16], key[:])
	copy(twice[16:], key[:])
	for h := range out {
		out[h] = e.sum128Slicing((*[16]byte)(twice[h%16:]))
	}
}

// Walk16 evaluates a fixed GF(2)-affine map f of a 16-byte key as one
// table walk. Every engine here is affine over its input bits (CRC is
// linear; init and xorout add constants), and so is any composition of
// engines over a fixed-width input, so
//
//	f(k) = f(0) ^ ⊕_i (f(k_i·e_i) ^ f(0))
//
// where k_i·e_i is the key holding k's byte i and zeros elsewhere. The
// table keeps one entry per byte position and value, with f(0) folded
// into position 0, so Sum is sixteen independent loads XORed together,
// where a CRC over the same bytes runs rounds that each wait on the last.
type Walk16 struct {
	t [16][256]uint32
}

// NewWalk16 tabulates f, which must be GF(2)-affine in its input bits,
// from f of the zero key and of the 4 096 one-byte keys.
func NewWalk16(f func(key *[16]byte) uint32) *Walk16 {
	w := &Walk16{}
	var k [16]byte
	zero := f(&k)
	for i := range w.t {
		for v := range w.t[i] {
			k[i] = byte(v)
			w.t[i][v] = f(&k) ^ zero
		}
		k[i] = 0
	}
	for v := range w.t[0] {
		w.t[0][v] ^= zero
	}
	return w
}

// Sum returns f(key).
func (w *Walk16) Sum(key *[16]byte) uint32 {
	return w.t[0][key[0]] ^ w.t[1][key[1]] ^ w.t[2][key[2]] ^ w.t[3][key[3]] ^
		w.t[4][key[4]] ^ w.t[5][key[5]] ^ w.t[6][key[6]] ^ w.t[7][key[7]] ^
		w.t[8][key[8]] ^ w.t[9][key[9]] ^ w.t[10][key[10]] ^ w.t[11][key[11]] ^
		w.t[12][key[12]] ^ w.t[13][key[13]] ^ w.t[14][key[14]] ^ w.t[15][key[15]]
}

// Family is an indexed set of independent hash functions realised as CRC
// engines with distinct polynomials, mirroring how the translator derives
// its N slot-index hashes and its checksum hash from one hardware engine.
// Sum128 evaluates any prefix of the members on one key in one pass.
type Family struct {
	engines []*Engine
	k       []kernel // the members' kernels, contiguous, for Sum128
}

// NewFamily returns a family of n independent hash functions over the
// shared engines of the pool's first n polynomials.
// n must be between 1 and the size of the polynomial pool (8).
func NewFamily(n int) (*Family, error) {
	ps, err := pool(n)
	if err != nil {
		return nil, err
	}
	return familyOf(ps), nil
}

// pool returns the pool's first n polynomials.
func pool(n int) ([]Params, error) {
	if n < 1 || n > len(polyPool) {
		return nil, fmt.Errorf("crc: family size %d out of range [1,%d]", n, len(polyPool))
	}
	return polyPool[:n], nil
}

// MustFamily is NewFamily for static configuration; it panics on a bad n.
func MustFamily(n int) *Family {
	f, err := NewFamily(n)
	if err != nil {
		panic(err)
	}
	return f
}

// MustFamilyAfter is MustFamily(n) with lead as member 0 and the pool's
// polynomials as members 1..n, so that one Sum128 yields a key's
// checksum (lead, outside the pool) and its first slots. It panics on a
// bad n or a lead whose polynomial is one of those n.
func MustFamilyAfter(lead Params, n int) *Family {
	ps, err := pool(n)
	if err != nil {
		panic(err)
	}
	return familyOf(append([]Params{lead}, ps...))
}

// familyOf returns the family of ps's engines, in order. Their
// polynomials must be pairwise distinct.
func familyOf(ps []Params) *Family {
	f := &Family{engines: make([]*Engine, len(ps)), k: make([]kernel, len(ps))}
	for i, p := range ps {
		for _, q := range ps[:i] {
			if q.Poly == p.Poly {
				panic(fmt.Errorf("crc: %s and %s share a polynomial", q.Name, p.Name))
			}
		}
		f.engines[i] = New(p)
		f.k[i] = f.engines[i].k
	}
	return f
}

// Size reports the number of hash functions in the family.
func (f *Family) Size() int { return len(f.engines) }

// Hash16 applies the i'th function to a fixed 16-byte key (the DTA
// telemetry key width) with its engine's Sum128.
func (f *Family) Hash16(i int, key *[16]byte) uint32 { return f.engines[i].Sum128(key) }

// Sum128 sets out[i] to the i'th function of key for every i below
// len(out), which must not exceed Size: one kernel call for all of them
// where the CPU has carry-less multiply, reading no table.
func (f *Family) Sum128(key *[16]byte, out []uint32) {
	k := f.k[:len(out)]
	if len(k) == 0 {
		return
	}
	if haveCLMUL {
		clmul16(key, &k[0], len(k), &out[0])
		return
	}
	for i := range out {
		out[i] = f.engines[i].sum128Slicing(key)
	}
}
