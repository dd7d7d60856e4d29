package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dta/internal/wire"
)

// ErrCorrupt reports a damaged record before the log's tail: unlike a
// torn tail (which recovery silently truncates), mid-log damage means
// acknowledged records are gone, so it is surfaced, not swallowed.
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

// SegmentInfo describes one scanned segment file.
type SegmentInfo struct {
	// Path is the segment file.
	Path string
	// Base is the LSN the segment starts at (from its header).
	Base uint64
	// First and Last bound the valid records found (0/0 when empty).
	First, Last uint64
	// Records counts valid records.
	Records int
	// Bytes is the byte offset just past the last valid record — the
	// truncation point when the tail beyond it is damaged.
	Bytes int64
	// TornBytes counts bytes past the last valid record (0 = clean).
	TornBytes int64
	// Err describes why scanning stopped early (nil = clean EOF).
	Err error
}

// readBufLen is the buffer a log scan reads any segment through.
const readBufLen = 1 << 20

// scanSegment is the one segment reader: it walks a segment from r,
// validating framing, CRCs and LSN contiguity, hands each intact record
// to fn (nil: count only; the record is valid during the call) and says
// how far the segment is intact. Records parse where they lie in buf (at
// least 2 × MaxRecordLen), refilled whenever less than a longest record
// is left, so one that straddles a refill parses like any other. Damage
// is reported in the info (TornBytes/Err), not as the error — only I/O
// errors, header mismatches and fn's errors fail the scan itself.
func scanSegment(path string, r io.Reader, buf []byte, base uint64, fn func(lsn, nowNs uint64, rec *wire.StagedReport) error) (SegmentInfo, error) {
	info := SegmentInfo{Path: path, Base: base}
	lo, hi, eof := 0, 0, false
	// fill moves buf[lo:hi] to the front, then reads until buf is full or
	// the segment ends.
	fill := func() error {
		hi, lo = copy(buf, buf[lo:hi]), 0
		n, err := io.ReadFull(r, buf[hi:])
		hi += n
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			eof, err = true, nil
		}
		return err
	}
	if err := fill(); err != nil {
		return info, err
	}
	if hi < segHeaderLen {
		info.TornBytes = int64(hi)
		info.Err = fmt.Errorf("wal: segment header truncated at %dB", hi)
		return info, nil
	}
	if [8]byte(buf[:8]) != segMagic {
		return info, fmt.Errorf("wal: %s: bad magic", path)
	}
	if got := binary.BigEndian.Uint64(buf[8:16]); got != base {
		return info, fmt.Errorf("wal: %s: header base LSN %d, name says %d", path, got, base)
	}
	lo, info.Bytes = segHeaderLen, segHeaderLen
	prevNow := uint64(0)
	var rec wire.StagedReport
	var img [wire.MaxStagedEncodedLen]byte
	for {
		if hi-lo < MaxRecordLen && !eof {
			if err := fill(); err != nil {
				return info, err
			}
		}
		n, nowNs, err := readRecord(buf[lo:hi], prevNow, &img, &rec)
		if err != nil {
			if err != io.EOF {
				info.Err = err
			}
			break
		}
		lsn := base + uint64(info.Records)
		if fn != nil {
			if err := fn(lsn, nowNs, &rec); err != nil {
				return info, err
			}
		}
		info.First, info.Last = base, lsn
		info.Records++
		info.Bytes += int64(n)
		prevNow = nowNs
		lo += n
	}
	// Everything past the last intact record is torn: count it.
	for info.TornBytes = int64(hi - lo); !eof; info.TornBytes += int64(hi) {
		lo = hi
		if err := fill(); err != nil {
			return info, err
		}
	}
	return info, nil
}

// scanFile is scanSegment over the file of segment base in dir.
func scanFile(dir string, base uint64, buf []byte, fn func(lsn, nowNs uint64, rec *wire.StagedReport) error) (SegmentInfo, error) {
	path := filepath.Join(dir, segName(base))
	f, err := os.Open(path)
	if err != nil {
		return SegmentInfo{Path: path, Base: base}, err
	}
	defer f.Close() // only read: nothing for Close to report
	return scanSegment(path, f, buf, base, fn)
}

// readRecord parses one framed record at the head of b, checking the
// CRC and structural consistency. LSNs are implicit (contiguous within
// a segment); prevNow decodes the timestamp delta. io.EOF means a
// clean end (b empty); any other error describes the damage found — the
// same whatever b holds past MaxRecordLen.
func readRecord(b []byte, prevNow uint64, img *[wire.MaxStagedEncodedLen]byte, rec *wire.StagedReport) (n int, nowNs uint64, err error) {
	if len(b) == 0 {
		return 0, 0, io.EOF
	}
	if len(b) < recordHeaderLen {
		return 0, 0, fmt.Errorf("wal: record header truncated at %dB", len(b))
	}
	total := recordHeaderLen + int(b[4])
	if total > MaxRecordLen {
		return 0, 0, fmt.Errorf("wal: record length %dB exceeds %d", total, MaxRecordLen)
	}
	if len(b) < total {
		return 0, 0, fmt.Errorf("wal: record truncated (%dB of %d)", len(b), total)
	}
	if got, want := crc32.Checksum(b[4:total], castagnoli), binary.BigEndian.Uint32(b[0:4]); got != want {
		return 0, 0, fmt.Errorf("wal: record CRC mismatch (%08x != %08x)", got, want)
	}
	bitmap := b[5]
	if bitmap>>stagedGroups != 0 {
		return 0, 0, fmt.Errorf("wal: record group bitmap %08b out of range", bitmap)
	}
	body := b[recordHeaderLen:total]
	delta, vn := binary.Varint(body)
	if vn <= 0 {
		return 0, 0, fmt.Errorf("wal: record timestamp delta malformed")
	}
	body = body[vn:]
	// Reassemble the fixed staged image: elided groups are zero.
	for i := range img[:wire.StagedFixedLen] {
		img[i] = 0
	}
	for g := 0; g < stagedGroups; g++ {
		if bitmap&(1<<g) == 0 {
			continue
		}
		if len(body) < 8 {
			return 0, 0, fmt.Errorf("wal: record group %d truncated", g)
		}
		copy(img[g*8:], body[:8])
		body = body[8:]
	}
	payload := body
	copy(img[wire.StagedFixedLen:], payload)
	if _, err := wire.DecodeStaged(img[:wire.StagedFixedLen+len(payload)], rec); err != nil {
		return 0, 0, err
	}
	if dl := rec.Payload(); len(dl) != len(payload) {
		return 0, 0, fmt.Errorf("wal: record payload %dB, staged header says %d", len(payload), len(dl))
	}
	return total, prevNow + uint64(delta), nil
}

// Segments scans every segment in dir, in LSN order.
func Segments(dir string) ([]SegmentInfo, error) {
	bases, err := segBases(dir)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, readBufLen)
	var out []SegmentInfo
	for _, base := range bases {
		info, err := scanFile(dir, base, buf, nil)
		if err != nil {
			return out, err
		}
		out = append(out, info)
	}
	return out, nil
}

// Bounds returns the first and last LSN retained across dir's intact
// records (0, 0 for an empty log).
func Bounds(dir string) (first, last uint64, err error) {
	segs, err := Segments(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		if s.Records == 0 {
			continue
		}
		if first == 0 {
			first = s.First
		}
		last = s.Last
	}
	return first, last, nil
}

// Replay streams every intact record with LSN >= from, in order, to fn,
// and returns the last LSN delivered (0 if none). A damaged tail in the
// LAST segment ends the stream cleanly — that is the crash the log exists
// to absorb; damage anywhere else (or an inter-segment LSN gap) returns
// ErrCorrupt, because acknowledged records are missing — after the
// records in front of it were delivered: each segment is validated and
// delivered in one pass (a recovery aborts either way). fn errors abort
// the replay. A segment whose records all lie below from is not read.
func Replay(dir string, from uint64, fn func(lsn, nowNs uint64, rec *wire.StagedReport) error) (last uint64, err error) {
	return replay(dir, from, make([]byte, readBufLen), fn)
}

func replay(dir string, from uint64, buf []byte, fn func(lsn, nowNs uint64, rec *wire.StagedReport) error) (last uint64, err error) {
	bases, err := segBases(dir)
	if err != nil {
		return 0, err
	}
	next := uint64(0)
	for si, base := range bases {
		tail := si == len(bases)-1
		if !tail && bases[si+1] <= from {
			continue
		}
		s, err := scanFile(dir, base, buf, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
			if lsn == base && next != 0 && base != next {
				return fmt.Errorf("%w: LSN gap: segment %s starts at %d, expected %d", ErrCorrupt, segName(base), base, next)
			}
			if lsn < from {
				return nil
			}
			if err := fn(lsn, nowNs, rec); err != nil {
				return err
			}
			last = lsn
			return nil
		})
		if err != nil {
			return last, err
		}
		if s.Records == 0 && s.Err == nil && !tail {
			return last, fmt.Errorf("%w: segment %s is empty mid-log", ErrCorrupt, s.Path)
		}
		if (s.Err != nil || s.TornBytes > 0) && !tail {
			return last, fmt.Errorf("%w: %s: %v", ErrCorrupt, s.Path, s.Err)
		}
		if s.Records > 0 {
			next = s.Last + 1
		}
	}
	return last, nil
}

// RepairTail truncates the last segment just past its final valid
// record, discarding a torn tail left by a crash mid-write. It returns
// the number of bytes removed (0 = nothing to repair). Damage in
// non-tail segments is NOT repaired (it is not a torn tail) and is
// reported by Replay instead.
func RepairTail(dir string) (removed int64, err error) {
	_, removed, err = repairTail(dir, make([]byte, readBufLen))
	return removed, err
}

// repairTail is RepairTail through buf; it also returns the tail as it
// stands afterwards (Path empty: no segment). A tail whose header did not
// survive is removed, and the segment before it, as it is, is the tail.
func repairTail(dir string, buf []byte) (tail SegmentInfo, removed int64, err error) {
	bases, err := segBases(dir)
	if err != nil || len(bases) == 0 {
		return tail, 0, err
	}
	tail, err = scanFile(dir, bases[len(bases)-1], buf, nil)
	if err != nil || tail.TornBytes == 0 {
		return tail, 0, err
	}
	removed, tail.TornBytes, tail.Err = tail.TornBytes, 0, nil
	if tail.Bytes >= segHeaderLen {
		return tail, removed, os.Truncate(tail.Path, tail.Bytes)
	}
	if err := os.Remove(tail.Path); err != nil {
		return tail, 0, err
	}
	if len(bases) == 1 {
		return SegmentInfo{}, removed, nil
	}
	tail, err = scanFile(dir, bases[len(bases)-2], buf, nil)
	return tail, removed, err
}
