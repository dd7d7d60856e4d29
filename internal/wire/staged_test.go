package wire

import (
	"bytes"
	"testing"
)

func sampleReports() []Report {
	return []Report{
		{
			Header:   Header{Version: Version, Primitive: PrimKeyWrite, Flags: FlagImmediate},
			KeyWrite: KeyWrite{Redundancy: 3, DataLen: 4, Key: KeyFromUint64(7)},
			Data:     []byte{1, 2, 3, 4},
		},
		{
			Header: Header{Version: Version, Primitive: PrimAppend},
			Append: Append{ListID: 9, DataLen: 2},
			Data:   []byte{5, 6},
		},
		{
			Header:       Header{Version: Version, Primitive: PrimKeyIncrement},
			KeyIncrement: KeyIncrement{Redundancy: 2, Key: KeyFromUint64(11), Delta: 42},
		},
		{
			Header:   Header{Version: Version, Primitive: PrimPostcarding},
			Postcard: Postcard{Key: KeyFromUint64(13), Hop: 1, PathLen: 5, Value: 77},
		},
	}
}

// view decompresses s into dst, overwriting the header, the active
// sub-header and Data (re-pointed at the inline buffer, so it is only
// valid while s is); sub-headers of other primitives may hold stale
// values. Returns dst.
func (s *StagedReport) view(dst *Report) *Report {
	dst.Header = Header{Version: Version, Primitive: s.prim, Flags: s.flags}
	if s.dataLen >= 0 {
		dst.Data = s.buf[:s.dataLen]
	} else {
		dst.Data = nil
	}
	switch s.prim {
	case PrimKeyWrite:
		dst.KeyWrite = KeyWrite{Redundancy: s.red, DataLen: uint16(len(dst.Data)), Key: s.key}
	case PrimAppend:
		dst.Append = Append{ListID: s.listID, DataLen: uint16(len(dst.Data))}
	case PrimKeyIncrement:
		dst.KeyIncrement = KeyIncrement{Redundancy: s.red, Key: s.key, Delta: s.delta}
	case PrimPostcarding:
		dst.Postcard = Postcard{Key: s.key, Hop: s.hop, PathLen: s.pathLen, Value: s.value}
	}
	return dst
}

// TestStagedRoundTrip pins Stage as lossless for every primitive:
// the decompressed report must serialise byte-identically to the
// original.
func TestStagedRoundTrip(t *testing.T) {
	var s StagedReport
	var dst Report
	for _, r := range sampleReports() {
		r := r
		s.Stage(&r)
		got := s.view(&dst)
		var wantBuf, gotBuf [MaxReportLen]byte
		wn, err := SerializeReport(wantBuf[:], &r)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := SerializeReport(gotBuf[:], got)
		if err != nil {
			t.Fatal(err)
		}
		if wn != gn || !bytes.Equal(wantBuf[:wn], gotBuf[:gn]) {
			t.Fatalf("%v: staged round trip altered the wire image", r.Header.Primitive)
		}
		if got.Header.Flags != r.Header.Flags {
			t.Fatalf("%v: flags lost", r.Header.Primitive)
		}
	}
}

// TestStagedAccessorsMatchView cross-checks the field accessors the
// translator fast path reads against the decompressed report.
func TestStagedAccessorsMatchView(t *testing.T) {
	var s StagedReport
	var dst Report
	for _, r := range sampleReports() {
		r := r
		s.Stage(&r)
		v := s.view(&dst)
		if s.Primitive() != v.Header.Primitive || s.Flags() != v.Header.Flags {
			t.Fatalf("%v: header accessors disagree", r.Header.Primitive)
		}
		if !bytes.Equal(s.Payload(), v.Data) {
			t.Fatalf("%v: payload accessor disagrees", r.Header.Primitive)
		}
		switch r.Header.Primitive {
		case PrimKeyWrite:
			key, red := s.KeyWriteArgs()
			if *key != v.KeyWrite.Key || red != v.KeyWrite.Redundancy {
				t.Fatal("key-write accessors disagree")
			}
		case PrimAppend:
			if s.AppendArgs() != v.Append.ListID {
				t.Fatal("append accessor disagrees")
			}
		case PrimKeyIncrement:
			key, red, delta := s.KeyIncrementArgs()
			if *key != v.KeyIncrement.Key || red != v.KeyIncrement.Redundancy || delta != v.KeyIncrement.Delta {
				t.Fatal("key-increment accessors disagree")
			}
		case PrimPostcarding:
			key, hop, pl, val := s.PostcardArgs()
			if *key != v.Postcard.Key || hop != v.Postcard.Hop || pl != v.Postcard.PathLen || val != v.Postcard.Value {
				t.Fatal("postcard accessors disagree")
			}
		}
	}
}

// TestValidateMatchesDecode pins Validate (structured-path admission) to
// the wire decoder's accept/reject behaviour.
func TestValidateMatchesDecode(t *testing.T) {
	bad := []Report{
		{Header: Header{Version: Version, Primitive: PrimKeyWrite}, KeyWrite: KeyWrite{Redundancy: 0}},
		{Header: Header{Version: Version, Primitive: PrimKeyWrite}, KeyWrite: KeyWrite{Redundancy: 1}, Data: make([]byte, MaxData+1)},
		{Header: Header{Version: Version, Primitive: PrimAppend}, Append: Append{ListID: 1}},
		{Header: Header{Version: Version, Primitive: PrimKeyIncrement}},
		{Header: Header{Version: Version, Primitive: PrimPostcarding}, Postcard: Postcard{Hop: 5, PathLen: 5}},
		{Header: Header{Version: Version, Primitive: PrimInvalid}},
	}
	for i, r := range bad {
		r := r
		if err := r.Validate(); err == nil {
			t.Errorf("bad report %d accepted by Validate", i)
		}
	}
	for _, r := range sampleReports() {
		r := r
		if err := r.Validate(); err != nil {
			t.Errorf("%v: valid report rejected: %v", r.Header.Primitive, err)
		}
	}
}

// TestStageIgnoresSlotHistory pins the encoded (logged) form of a staged
// record as a function of the report alone: staging into a fresh slot and
// into one recycled from every other sample report must encode
// byte-identically, in both the full and the zero-elided codec.
func TestStageIgnoresSlotHistory(t *testing.T) {
	reports := sampleReports()
	for i := range reports {
		var fresh StagedReport
		fresh.Stage(&reports[i])
		var want, got [MaxStagedEncodedLen]byte
		wn := fresh.EncodeTo(want[:])
		var wantG, gotG [MaxStagedEncodedLen]byte
		wgn, wbits := fresh.EncodeGroupsTo(wantG[:])
		for j := range reports {
			var slot StagedReport
			slot.Stage(&reports[j])
			slot.Stage(&reports[i])
			if gn := slot.EncodeTo(got[:]); gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
				t.Errorf("%v staged over %v: image %x, fresh slot gives %x",
					reports[i].Header.Primitive, reports[j].Header.Primitive, got[:gn], want[:wn])
			}
			if gn, bits := slot.EncodeGroupsTo(gotG[:]); gn != wgn || bits != wbits || !bytes.Equal(gotG[:gn], wantG[:wgn]) {
				t.Errorf("%v staged over %v: groups %x/%05b, fresh slot gives %x/%05b",
					reports[i].Header.Primitive, reports[j].Header.Primitive, gotG[:gn], bits, wantG[:wgn], wbits)
			}
		}
	}
}
