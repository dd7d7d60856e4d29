package main

import (
	"encoding/binary"

	"dta"
)

// The exact reference model of the four primitives. It is advanced from
// the tape only (never from the system's answers) and classifies every
// answer the system gives:
//
//	correct — exactly what the model holds;
//	inexact — an answer the primitive's contract permits but that is not
//	          the exact one: a Key-Write slot pair overwritten by later
//	          keys (absent), a count-min over-estimate, a postcard path
//	          cut short by a translator-cache eviction;
//	wrong   — an answer no contract permits: a value never written for
//	          the key, an under-count, a path that disagrees with the
//	          reported hops, an Append entry out of order.
//
// Wrong answers are failed operations; inexact ones lower verified_share.

type class uint8

const (
	correct class = iota
	inexact
	wrong
)

// switchIDs are the reporter switch IDs; hop h of flow f is reported by
// switch (f+h) mod len, so paths differ between flows.
var switchIDs = [pathHops]uint32{11, 12, 13, 14, 15}

type model struct {
	kw    []uint32 // last value written per key index; 0 = never written
	ki    []uint64 // exact sum per key index
	flows uint64   // flows [0,flows) have been reported completely
	ap    [apLists]uint64
	// polled is how many entries of each list the verifier has consumed.
	polled [apLists]uint64
}

func newModel() *model {
	return &model{kw: make([]uint32, keySpace), ki: make([]uint64, keySpace)}
}

// kwValue is the 4-byte value lap L writes for a tape op: never zero,
// different on every lap, so a stale read is detectable.
func kwValue(o op, lap uint32) uint32 { return (lap+1)<<16 | uint32(o.val) }

// flowID numbers postcard flows across laps.
func flowID(t *tape, o op, lap uint32) uint64 {
	return uint64(lap)*uint64(t.flowsPerLap) + uint64(o.key)
}

func kwKey(idx uint32) dta.Key  { return dta.KeyFromUint64(uint64(idx)) }
func flowKey(id uint64) dta.Key { return dta.KeyFromUint64(1<<40 | id) }
func pathValue(id uint64, hop int) uint32 {
	return switchIDs[(id+uint64(hop))%pathHops]
}

// apply advances the model over ops[from:to) of the given lap.
func (m *model) apply(t *tape, lap uint32, from, to int) {
	for _, o := range t.ops[from:to] {
		switch o.kind {
		case opKW:
			m.kw[o.key] = kwValue(o, lap)
		case opKI:
			m.ki[o.key] += uint64(o.val)
		case opPC:
			if o.aux == pathHops-1 {
				m.flows++
			}
		case opAP:
			m.ap[o.aux]++
		}
	}
}

func (m *model) classifyValue(idx uint32, data []byte, ok bool) class {
	want := m.kw[idx]
	if !ok {
		if want == 0 {
			return correct
		}
		return inexact
	}
	if want != 0 && len(data) == 4 && binary.BigEndian.Uint32(data) == want {
		return correct
	}
	return wrong
}

func (m *model) classifyCount(idx uint32, got uint64) class {
	switch want := m.ki[idx]; {
	case got == want:
		return correct
	case got > want:
		return inexact
	default:
		return wrong
	}
}

func (m *model) classifyPath(id uint64, vals []uint32, ok bool) class {
	reported := id < m.flows
	if !ok {
		if reported {
			return inexact
		}
		return correct
	}
	if !reported || len(vals) > pathHops {
		return wrong
	}
	for h, v := range vals {
		if v != pathValue(id, h) {
			return wrong
		}
	}
	if len(vals) < pathHops {
		return inexact
	}
	return correct
}

// apEntry is the 8-byte Append payload: the list in the top byte, the
// list-local sequence number below it.
func apEntry(buf *[8]byte, list uint8, seq uint64) []byte {
	binary.BigEndian.PutUint64(buf[:], uint64(list)<<56|seq)
	return buf[:]
}

// classifyEntry checks the next polled entry of a list and consumes it.
func (m *model) classifyEntry(list int, entry []byte) class {
	want := uint64(list)<<56 | m.polled[list]
	m.polled[list]++
	if len(entry) == 8 && binary.BigEndian.Uint64(entry) == want {
		return correct
	}
	return wrong
}

// tally counts verification outcomes.
type tally struct {
	n [3]uint64
}

func (t *tally) add(c class)   { t.n[c]++ }
func (t *tally) total() uint64 { return t.n[correct] + t.n[inexact] + t.n[wrong] }
