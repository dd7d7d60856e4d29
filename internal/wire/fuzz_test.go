package wire

import (
	"bytes"
	"testing"
)

// Fuzz targets for the wire decoders. `go test` runs the seed corpus;
// `go test -fuzz=FuzzDecodeFrame ./internal/wire` explores further.

func seedFrames() [][]byte {
	var seeds [][]byte
	buf := make([]byte, MaxReportLen)
	f := &Frame{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 9, 0, 1}, SrcPort: 999}
	reports := []Report{
		{
			Header:   Header{Version: Version, Primitive: PrimKeyWrite},
			KeyWrite: KeyWrite{Redundancy: 2, Key: KeyFromUint64(1)},
			Data:     []byte{1, 2, 3, 4},
		},
		{
			Header: Header{Version: Version, Primitive: PrimAppend},
			Append: Append{ListID: 5},
			Data:   bytes.Repeat([]byte{7}, 18),
		},
		{
			Header:       Header{Version: Version, Primitive: PrimKeyIncrement},
			KeyIncrement: KeyIncrement{Redundancy: 1, Key: KeyFromUint64(2), Delta: 99},
		},
		{
			Header:   Header{Version: Version, Primitive: PrimPostcarding, Flags: FlagImmediate},
			Postcard: Postcard{Key: KeyFromUint64(3), Hop: 2, PathLen: 5, Value: 77},
		},
	}
	for i := range reports {
		n, err := SerializeFrame(buf, f, &reports[i])
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, append([]byte(nil), buf[:n]...))
	}
	return seeds
}

func FuzzDecodeFrame(f *testing.F) {
	for _, s := range seedFrames() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p ParsedFrame
		if err := DecodeFrame(data, &p); err != nil {
			return
		}
		if !p.IsDTA {
			return
		}
		// Any frame that decodes must re-serialise and decode to the
		// same report.
		buf := make([]byte, MaxReportLen)
		n, err := SerializeReport(buf, &p.Report)
		if err != nil {
			t.Fatalf("decoded report does not serialise: %v", err)
		}
		var again Report
		if err := DecodeReport(buf[:n], &again); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.Header != p.Report.Header {
			t.Fatalf("header changed: %+v vs %+v", again.Header, p.Report.Header)
		}
	})
}

func FuzzDecodeReport(f *testing.F) {
	buf := make([]byte, MaxReportLen)
	for _, s := range seedFrames() {
		// Strip the L2–L4 carriers to seed the inner decoder.
		if len(s) > EthernetLen+IPv4Len+UDPLen {
			f.Add(s[EthernetLen+IPv4Len+UDPLen:])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Report
		if err := DecodeReport(data, &r); err != nil {
			return
		}
		n, err := SerializeReport(buf, &r)
		if err != nil {
			t.Fatalf("serialise after decode: %v", err)
		}
		var again Report
		if err := DecodeReport(buf[:n], &again); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}

// seedStaged returns EncodeTo images of one record per primitive — the
// WAL's record bodies.
func seedStaged() [][]byte {
	var seeds [][]byte
	buf := make([]byte, MaxReportLen)
	for _, frame := range seedFrames() {
		var p ParsedFrame
		if err := DecodeFrame(frame, &p); err != nil {
			panic(err)
		}
		var s StagedReport
		s.Stage(&p.Report)
		n := s.EncodeTo(buf)
		seeds = append(seeds, append([]byte(nil), buf[:n]...))
	}
	return seeds
}

// stagedRoundTrip decodes an EncodeTo image and re-encodes it.
func stagedRoundTrip(t *testing.T, img []byte) (s StagedReport, consumed int, again []byte) {
	t.Helper()
	consumed, err := DecodeStaged(img, &s)
	if err != nil {
		t.Fatalf("decode of an encoded record: %v", err)
	}
	again = make([]byte, MaxStagedEncodedLen)
	return s, consumed, again[:s.EncodeTo(again)]
}

// FuzzDecodeStaged fuzzes the WAL's record codec, the format recovery
// trusts most: DecodeStaged never panics, and whatever it accepts is a
// fixed point of decode∘encode — re-encoding reproduces the consumed
// bytes (but for the reserved byte, which encodes as zero), decodes
// again to the same record, and the zero-elided group form the log
// actually frames reassembles to the very same image.
func FuzzDecodeStaged(f *testing.F) {
	for _, s := range seedStaged() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, MaxStagedEncodedLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s StagedReport
		n, err := DecodeStaged(data, &s)
		if err != nil {
			return
		}
		if want := StagedFixedLen + len(s.Payload()); n > len(data) || n != want {
			t.Fatalf("consumed %dB of %d, fixed part and payload %dB", n, len(data), want)
		}
		img := make([]byte, MaxStagedEncodedLen)
		img = img[:s.EncodeTo(img)]
		want := append([]byte(nil), data[:n]...)
		want[5] = 0 // reserved
		if !bytes.Equal(img, want) {
			t.Fatalf("encode(decode(b)) != b:\n got %x\nwant %x", img, want)
		}
		s2, n2, img2 := stagedRoundTrip(t, img)
		if n2 != len(img) || !bytes.Equal(img2, img) {
			t.Fatalf("decode∘encode is not a fixed point:\n 1st %x\n 2nd %x", img, img2)
		}
		if s2.Primitive() != s.Primitive() || s2.Flags() != s.Flags() || !bytes.Equal(s2.Payload(), s.Payload()) {
			t.Fatalf("record changed across the round trip")
		}
		// The log frames EncodeGroupsTo, not EncodeTo: present groups laid
		// over zeros at their bitmap positions must give the same image.
		grp := make([]byte, MaxStagedEncodedLen)
		gn, bitmap := s.EncodeGroupsTo(grp)
		re := make([]byte, StagedFixedLen, MaxStagedEncodedLen)
		off := 0
		for g := 0; g < StagedGroups; g++ {
			if bitmap&(1<<g) != 0 {
				copy(re[g*8:], grp[off:off+8])
				off += 8
			}
		}
		re = append(re, grp[off:gn]...)
		if !bytes.Equal(re, img) {
			t.Fatalf("group form reassembles to a different image:\n got %x\nwant %x", re, img)
		}
	})
}

// TestDecodeStagedTooShort: every length below the fixed block, and
// every payload cut short, is an error — never a panic, never a record.
func TestDecodeStagedTooShort(t *testing.T) {
	for _, img := range seedStaged() {
		for n := 0; n < len(img); n++ {
			var s StagedReport
			if got, err := DecodeStaged(img[:n], &s); err == nil {
				t.Fatalf("DecodeStaged accepted %dB of a %dB record (consumed %d)", n, len(img), got)
			}
		}
		if _, n, again := stagedRoundTrip(t, img); n != len(img) || !bytes.Equal(again, img) {
			t.Fatalf("seed record does not round-trip")
		}
	}
}
