package main

import (
	"math"
	"sort"
)

// The op tape: every input the program under test receives is generated
// here from the seed, before any timing starts, and replayed lap after
// lap. The system only ever sees the tape, never the generator.

type opKind uint8

const (
	opKW opKind = iota // Key-Write
	opKI               // Key-Increment
	opPC               // Postcarding (one hop of one flow)
	opAP               // Append
	numKinds
)

// op is one report on the tape (8 bytes, so the 2^21-op tape is 16 MiB
// read sequentially).
type op struct {
	key  uint32 // KW/KI: key index; PC: flow index within the tape; AP: unused
	val  uint16 // KW: value seed; KI: delta
	kind opKind
	aux  uint8 // PC: hop; AP: list
}

const (
	tapeLen   = 1 << 21
	keySpace  = 1 << 20 // Key-Write / Zipf Key-Increment key indices
	kiUniform = 1 << 18 // uniform Key-Increment key indices (see README: keeps count-min inflation small)
	pathHops  = 5
	apLists   = 8
	apBatch   = 16
	// flowsInFlight postcard flows are interleaved inside one frame;
	// every frame holds only complete paths, so a barrier (which drains
	// the translator's postcard cache) never cuts a flow in two.
	flowsInFlight = 16
	// apListsPerFrame lists receive exactly one full batch per frame, so
	// a barrier never forces a partial Append batch out (see README,
	// "what the workloads avoid").
	apListsPerFrame = 5
)

// splitmix64 is the generator behind every random choice in the
// benchmark: tape contents, verification samples, calibration indices.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// zipf draws ranks in [0,n) with P(k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF; ranks are scattered over the key space by a fixed
// odd multiplier so hot keys are not neighbours.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *splitmix64) uint32 {
	u := float64(r.next()>>11) / (1 << 53)
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return uint32(uint64(k)*0x9E3779B1) & (keySpace - 1)
}

// tapeSpec is the part of a workload that shapes its tape.
type tapeSpec struct {
	// mix is the repeating kind pattern, one entry per op.
	mix []opKind
	// kiZipf draws Key-Increment keys Zipf(1.1) over keySpace instead of
	// uniformly over kiUniform.
	kiZipf bool
}

// frameLen is the barrier granularity: every frame holds whole postcard
// paths and whole Append batches. Slices, epochs and the set-up prefix
// are all whole numbers of frames.
func (t tapeSpec) frameLen() int {
	n := [numKinds]int{}
	for _, k := range t.mix {
		n[k]++
	}
	f := len(t.mix)
	if n[opPC] > 0 {
		f = len(t.mix) * flowsInFlight * pathHops / n[opPC]
	}
	if n[opAP] > 0 {
		// The Append share of a frame must be apListsPerFrame batches.
		want := len(t.mix) * apListsPerFrame * apBatch / n[opAP]
		if f != want && n[opPC] > 0 {
			panic("tape: postcard and append frame lengths disagree")
		}
		f = want
	}
	return f
}

// tape is the generated op sequence plus what the model needs to know
// about one lap of it.
type tape struct {
	ops         []op
	frame       int
	flowsPerLap uint32
}

// genTape builds the tape for a workload from a seed. The same
// (spec, seed) always yields the same tape.
func genTape(spec tapeSpec, seed uint64) *tape {
	r := splitmix64(seed*0x9E3779B97F4A7C15 + 0x1234567)
	frame := spec.frameLen()
	n := tapeLen / frame * frame
	t := &tape{ops: make([]op, n), frame: frame}
	var zf *zipf
	if spec.kiZipf {
		zf = newZipf(keySpace, 1.1)
	}
	var flowBase uint32
	for f := 0; f < n/frame; f++ {
		ops := t.ops[f*frame : (f+1)*frame]
		pc, ap := 0, 0
		for i := range ops {
			o := &ops[i]
			o.kind = spec.mix[i%len(spec.mix)]
			switch o.kind {
			case opKW:
				o.key = uint32(r.next()) & (keySpace - 1)
				o.val = uint16(r.next())
			case opKI:
				if zf != nil {
					o.key = zf.draw(&r)
				} else {
					o.key = uint32(r.next()) & (kiUniform - 1)
				}
				o.val = uint16(1 + r.next()&3)
			case opPC:
				// Hop-major interleaving: hop h of all in-flight flows,
				// then hop h+1, so every flow's row stays open in the
				// translator cache for most of the frame.
				o.key = flowBase + uint32(pc%flowsInFlight)
				o.aux = uint8(pc / flowsInFlight)
				pc++
			case opAP:
				o.aux = uint8((f*apListsPerFrame + ap%apListsPerFrame) % apLists)
				ap++
			}
		}
		if pc > 0 {
			flowBase += flowsInFlight
		}
	}
	t.flowsPerLap = flowBase
	return t
}
