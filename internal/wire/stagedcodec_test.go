package wire

import (
	"bytes"
	"testing"
)

// TestStagedEncodeDecodeRoundTrip pins EncodeTo/DecodeStaged (the WAL
// record codec) as lossless for every primitive: the decoded record's
// view must serialise byte-identically to the original report, and the
// encoded length must be the fixed part plus the payload.
func TestStagedEncodeDecodeRoundTrip(t *testing.T) {
	var s, back StagedReport
	var view Report
	buf := make([]byte, MaxStagedEncodedLen)
	orig := make([]byte, MaxReportLen)
	redone := make([]byte, MaxReportLen)
	for _, r := range sampleReports() {
		r := r
		s.Stage(&r)
		n := s.EncodeTo(buf)
		if want := StagedFixedLen + len(s.Payload()); n != want {
			t.Fatalf("%v: EncodeTo wrote %dB, the fixed part and the payload are %dB", r.Header.Primitive, n, want)
		}
		if n > MaxStagedEncodedLen {
			t.Fatalf("%v: encoded %dB exceeds MaxStagedEncodedLen", r.Header.Primitive, n)
		}
		m, err := DecodeStaged(buf[:n], &back)
		if err != nil {
			t.Fatalf("%v: DecodeStaged: %v", r.Header.Primitive, err)
		}
		if m != n {
			t.Fatalf("%v: DecodeStaged consumed %dB of %d", r.Header.Primitive, m, n)
		}
		on, err := SerializeReport(orig, &r)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := SerializeReport(redone, back.view(&view))
		if err != nil {
			t.Fatalf("%v: serialising decoded record: %v", r.Header.Primitive, err)
		}
		if !bytes.Equal(orig[:on], redone[:rn]) {
			t.Fatalf("%v: round trip diverged:\n  orig %x\n  back %x", r.Header.Primitive, orig[:on], redone[:rn])
		}
	}
}

// TestEncodeGroupsMatchesEncodeTo pins the single-pass zero-elided
// encoder against the reference: scanning EncodeTo's image for non-zero
// 8-byte groups must yield exactly EncodeGroupsTo's output, and
// reassembling the groups over zeros must reproduce the image.
func TestEncodeGroupsMatchesEncodeTo(t *testing.T) {
	reports := sampleReports()
	// Edge shapes: zero key, zero delta, zero list/value, empty payload.
	reports = append(reports,
		Report{Header: Header{Version: Version, Primitive: PrimKeyWrite},
			KeyWrite: KeyWrite{Redundancy: 1}, Data: []byte{}},
		Report{Header: Header{Version: Version, Primitive: PrimAppend},
			Append: Append{ListID: 0, DataLen: 1}, Data: []byte{9}},
		Report{Header: Header{Version: Version, Primitive: PrimKeyIncrement},
			KeyIncrement: KeyIncrement{Redundancy: 2, Key: KeyFromUint64(1 << 60)}},
	)
	var s StagedReport
	ref := make([]byte, MaxStagedEncodedLen)
	got := make([]byte, MaxStagedEncodedLen)
	for ci, r := range reports {
		r := r
		s.Stage(&r)
		rn := s.EncodeTo(ref)
		gn, bitmap := s.EncodeGroupsTo(got)

		// Reference: elide zero groups from the EncodeTo image.
		var wantBitmap uint8
		var want []byte
		for g := 0; g < StagedGroups; g++ {
			grp := ref[g*8 : g*8+8]
			if [8]byte(grp) != ([8]byte{}) {
				wantBitmap |= 1 << g
				want = append(want, grp...)
			}
		}
		want = append(want, ref[StagedFixedLen:rn]...)
		if bitmap != wantBitmap {
			t.Errorf("case %d: bitmap %05b, want %05b", ci, bitmap, wantBitmap)
		}
		if gn != len(want) || !bytes.Equal(got[:gn], want) {
			t.Errorf("case %d: groups encode %x, want %x", ci, got[:gn], want)
		}
	}
}

// TestDecodeStagedRejectsDamage pins the codec's framing checks.
func TestDecodeStagedRejectsDamage(t *testing.T) {
	var s, back StagedReport
	r := sampleReports()[0]
	s.Stage(&r)
	buf := make([]byte, MaxStagedEncodedLen)
	n := s.EncodeTo(buf)

	if _, err := DecodeStaged(buf[:StagedFixedLen-1], &back); err == nil {
		t.Error("truncated fixed header accepted")
	}
	if _, err := DecodeStaged(buf[:n-1], &back); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := append([]byte(nil), buf[:n]...)
	bad[0] = 0xEE // unknown primitive
	if _, err := DecodeStaged(bad, &back); err == nil {
		t.Error("unknown primitive accepted")
	}
	bad = append(bad[:0], buf[:n]...)
	bad[6], bad[7] = 0x7F, 0xFF // absurd payload length
	if _, err := DecodeStaged(bad, &back); err == nil {
		t.Error("out-of-range payload length accepted")
	}
}

// TestRecipientsRideTheLog: an Append's recipient set survives the log
// codec (EncodeTo / DecodeStaged), and SetRecipients leaves every other
// primitive's image as it was — a Key-Increment's delta shares the bytes.
func TestRecipientsRideTheLog(t *testing.T) {
	var s, back StagedReport
	buf := make([]byte, MaxStagedEncodedLen)
	before := make([]byte, MaxStagedEncodedLen)
	for _, r := range sampleReports() {
		r := r
		s.Stage(&r)
		n := s.EncodeTo(before)
		s.SetRecipients([]int{3, 0, 1})
		m := s.EncodeTo(buf)
		if r.Header.Primitive != PrimAppend {
			if !bytes.Equal(before[:n], buf[:m]) {
				t.Errorf("%v: SetRecipients changed the record", r.Header.Primitive)
			}
			continue
		}
		if _, err := DecodeStaged(buf[:m], &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Recipients(); got != 0b1011 {
			t.Errorf("Append recipients %b after the round trip, want 1011", got)
		}
		if n != m || back.AppendArgs() != r.Append.ListID || !bytes.Equal(back.Payload(), r.Data) {
			t.Errorf("stamping moved the Append's fields: %d → %dB, list %d, payload %x", n, m, back.AppendArgs(), back.Payload())
		}
	}
}
