package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"dta/internal/wire"
)

// segmentImage writes n records through a real Writer and returns the
// bytes of the one segment they land in.
func segmentImage(t testing.TB, n int) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := w.Append(crashRecord(uint64(i)), uint64(i)*1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scanBytes is the byte-slice scan: the segment reader over data with a
// buffer that holds all of it, so it is never refilled.
func scanBytes(data []byte, base uint64) (SegmentInfo, error) {
	return scanSegment("seg", bytes.NewReader(data), make([]byte, max(len(data), 2*MaxRecordLen)), base, nil)
}

// readSegment runs the segment reader over r through a buffer of bufLen
// bytes and returns its verdict, and every record it delivered (encoded,
// with its LSN and timestamp).
func readSegment(r io.Reader, bufLen int, base uint64) (verdict string, recs []byte) {
	info, err := scanSegment("seg", r, make([]byte, bufLen), base, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
		var enc [wire.MaxStagedEncodedLen]byte
		recs = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(recs, lsn), nowNs)
		recs = append(recs, enc[:rec.EncodeTo(enc[:])]...)
		return nil
	})
	return fmt.Sprintf("%+v (%v)", info, err), recs
}

// requireSameReading holds the reader over data, taken one byte or half a
// read at a time through the smallest buffer it accepts — refilled
// between, or inside, every pair of records — to the verdict and the
// records the byte-slice scan gives.
func requireSameReading(t *testing.T, data []byte, base uint64) {
	t.Helper()
	want, wantRecs := readSegment(bytes.NewReader(data), max(len(data), 2*MaxRecordLen), base)
	for name, r := range map[string]io.Reader{
		"one byte at a time": iotest.OneByteReader(bytes.NewReader(data)),
		"half of each read":  iotest.HalfReader(bytes.NewReader(data)),
	} {
		if got, recs := readSegment(r, 2*MaxRecordLen, base); got != want || !bytes.Equal(recs, wantRecs) {
			t.Fatalf("%s: %s, %d record bytes; the byte-slice scan says %s, %d record bytes", name, got, len(recs), want, len(wantRecs))
		}
	}
}

// FuzzSegmentReader fuzzes the segment reader recovery runs first:
// scanSegment and readRecord never panic on any bytes, the scan's
// verdict is self-consistent (the intact prefix is inside the file, the
// counts agree with the LSN range) and does not depend on how the bytes
// arrive or where the read buffer is refilled, the intact prefix re-scans
// clean to the same verdict (so RepairTail's truncation is idempotent),
// and every record the scan accepted reads back as a fixed point of the
// staged codec.
func FuzzSegmentReader(f *testing.F) {
	seg := segmentImage(f, 12)
	f.Add(seg)
	f.Add(seg[:segHeaderLen])
	f.Add(seg[:len(seg)-3]) // torn tail
	flipped := append([]byte(nil), seg...)
	flipped[segHeaderLen+9] ^= 0x40 // bit flip inside the first record
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 1
		requireSameReading(t, data, base)
		info, err := scanBytes(data, base)
		if err != nil {
			return // bad magic / base mismatch: the scan itself refuses
		}
		if info.Bytes+info.TornBytes != int64(len(data)) {
			t.Fatalf("Bytes %d + TornBytes %d != file %d", info.Bytes, info.TornBytes, len(data))
		}
		if len(data) < segHeaderLen {
			if info.Records != 0 || info.Err == nil {
				t.Fatalf("header-less segment scanned as %+v", info)
			}
			return
		}
		if info.Records > 0 && (info.First != base || info.Last != base+uint64(info.Records)-1) {
			t.Fatalf("range [%d,%d] disagrees with %d records", info.First, info.Last, info.Records)
		}
		if info.TornBytes > 0 && info.Err == nil {
			t.Fatalf("torn bytes without a reason: %+v", info)
		}
		again, err := scanBytes(data[:info.Bytes], base)
		if err != nil || again.TornBytes != 0 || again.Err != nil || again.Records != info.Records {
			t.Fatalf("intact prefix does not re-scan clean: %+v (%v)", again, err)
		}
		// Walk the accepted records the way the scan does.
		var rec wire.StagedReport
		var img [wire.MaxStagedEncodedLen]byte
		off, prevNow := int64(segHeaderLen), uint64(0)
		for i := 0; i < info.Records; i++ {
			n, nowNs, err := readRecord(data[off:info.Bytes], prevNow, &img, &rec)
			if err != nil {
				t.Fatalf("record %d of %d accepted by the scan does not read: %v", i, info.Records, err)
			}
			// What the reader hands to replay must be a fixed point of the
			// staged codec, or a recovered store could differ from the one
			// a second recovery of the re-logged record would build.
			var back wire.StagedReport
			var enc, enc2 [wire.MaxStagedEncodedLen]byte
			en := rec.EncodeTo(enc[:])
			if _, err := wire.DecodeStaged(enc[:en], &back); err != nil {
				t.Fatalf("accepted record does not re-decode: %v", err)
			}
			if en2 := back.EncodeTo(enc2[:]); !bytes.Equal(enc[:en], enc2[:en2]) {
				t.Fatalf("accepted record is not a codec fixed point")
			}
			off += int64(n)
			prevNow = nowNs
		}
		if _, _, err := readRecord(data[off:info.Bytes], prevNow, &img, &rec); err != io.EOF {
			t.Fatalf("after the last record: %v, want io.EOF", err)
		}
	})
}

// TestSegmentReaderTooShort: cut a real segment at every length. Below
// the segment header nothing is readable; from there on the scan keeps
// exactly the whole records that fit and calls the rest torn — however
// the bytes arrive — and readRecord rejects every strict prefix of a
// record.
func TestSegmentReaderTooShort(t *testing.T) {
	seg := segmentImage(t, 5)
	full, err := scanBytes(seg, 1)
	if err != nil || full.Records != 5 || full.TornBytes != 0 {
		t.Fatalf("reference segment: %+v (%v)", full, err)
	}
	// Record boundaries, from a clean walk.
	var rec wire.StagedReport
	var img [wire.MaxStagedEncodedLen]byte
	bounds := []int{segHeaderLen}
	prev := uint64(0)
	for off := segHeaderLen; off < len(seg); {
		n, now, err := readRecord(seg[off:], prev, &img, &rec)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < n; cut++ {
			if _, _, err := readRecord(seg[off:off+cut], prev, &img, &rec); err == nil || err == io.EOF {
				t.Fatalf("readRecord accepted %dB of a %dB record (err=%v)", cut, n, err)
			}
		}
		off, prev = off+n, now
		bounds = append(bounds, off)
	}
	for cut := 0; cut <= len(seg); cut++ {
		requireSameReading(t, seg[:cut], 1)
		info, err := scanBytes(seg[:cut], 1)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if cut < segHeaderLen {
			if info.Records != 0 || info.Err == nil || info.TornBytes != int64(cut) {
				t.Fatalf("cut at %d (below the header): %+v", cut, info)
			}
			continue
		}
		whole := 0
		for whole+1 < len(bounds) && bounds[whole+1] <= cut {
			whole++
		}
		if info.Records != whole || info.Bytes != int64(bounds[whole]) || info.TornBytes != int64(cut-bounds[whole]) {
			t.Fatalf("cut at %d: %+v, want %d whole records up to byte %d", cut, info, whole, bounds[whole])
		}
	}
}
