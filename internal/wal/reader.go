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

// scanSegment walks one segment, validating framing, CRCs and LSN
// contiguity, and returns how far it is intact. Damage is reported in
// the info (TornBytes/Err), not as the error — only I/O and header
// mismatches fail the scan itself.
func scanSegment(path string, wantBase uint64) (SegmentInfo, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return SegmentInfo{Path: path, Base: wantBase}, err
	}
	return scanSegmentImage(path, b, wantBase)
}

// scanSegmentImage is scanSegment over the file's bytes.
func scanSegmentImage(path string, b []byte, wantBase uint64) (SegmentInfo, error) {
	info := SegmentInfo{Path: path, Base: wantBase}
	if len(b) < segHeaderLen {
		info.TornBytes = int64(len(b))
		info.Err = fmt.Errorf("wal: segment header truncated at %dB", len(b))
		return info, nil
	}
	if [8]byte(b[:8]) != segMagic {
		return info, fmt.Errorf("wal: %s: bad magic", path)
	}
	if base := binary.BigEndian.Uint64(b[8:16]); base != wantBase {
		return info, fmt.Errorf("wal: %s: header base LSN %d, name says %d", path, base, wantBase)
	}
	off := int64(segHeaderLen)
	prevNow := uint64(0)
	var rec wire.StagedReport
	var img [wire.MaxStagedEncodedLen]byte
	for {
		n, nowNs, err := readRecord(b[off:], prevNow, &img, &rec)
		if err != nil {
			if err != io.EOF {
				info.Err = err
			}
			break
		}
		if info.Records == 0 {
			info.First = wantBase
		}
		info.Last = wantBase + uint64(info.Records)
		info.Records++
		prevNow = nowNs
		off += int64(n)
	}
	info.Bytes = off
	info.TornBytes = int64(len(b)) - off
	return info, nil
}

// readRecord parses one framed record at the head of b, checking the
// CRC and structural consistency. LSNs are implicit (contiguous within
// a segment); prevNow decodes the timestamp delta. io.EOF means a
// clean end (b empty); any other error describes the damage found.
func readRecord(b []byte, prevNow uint64, img *[wire.MaxStagedEncodedLen]byte, rec *wire.StagedReport) (n int, nowNs uint64, err error) {
	if len(b) == 0 {
		return 0, 0, io.EOF
	}
	if len(b) < recordHeaderLen {
		return 0, 0, fmt.Errorf("wal: record header truncated at %dB", len(b))
	}
	total := recordHeaderLen + int(b[4])
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
	var out []SegmentInfo
	for _, base := range bases {
		info, err := scanSegment(filepath.Join(dir, segName(base)), base)
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
// LAST segment ends the stream cleanly — that is the crash the log
// exists to absorb; damage anywhere else (or an inter-segment LSN gap)
// returns ErrCorrupt, because acknowledged records are missing. fn
// errors abort the replay. A segment whose records all lie below from is
// not needed and not read (from = 1 checks the whole log); the others
// are held in memory one at a time, each read once.
func Replay(dir string, from uint64, fn func(lsn, nowNs uint64, rec *wire.StagedReport) error) (last uint64, err error) {
	bases, err := segBases(dir)
	if err != nil {
		return 0, err
	}
	var rec wire.StagedReport
	var img [wire.MaxStagedEncodedLen]byte
	next := uint64(0)
	for si, base := range bases {
		tail := si == len(bases)-1
		if !tail && bases[si+1] <= from {
			continue
		}
		path := filepath.Join(dir, segName(base))
		b, err := os.ReadFile(path)
		if err != nil {
			return last, err
		}
		s, err := scanSegmentImage(path, b, base)
		if err != nil {
			return last, err
		}
		if s.Records == 0 && s.Err == nil && !tail {
			return last, fmt.Errorf("%w: segment %s is empty mid-log", ErrCorrupt, s.Path)
		}
		if (s.Err != nil || s.TornBytes > 0) && !tail {
			return last, fmt.Errorf("%w: %s: %v", ErrCorrupt, s.Path, s.Err)
		}
		if next != 0 && s.Records > 0 && s.First != next {
			return last, fmt.Errorf("%w: LSN gap: segment %s starts at %d, expected %d", ErrCorrupt, s.Path, s.First, next)
		}
		if s.Records == 0 {
			continue
		}
		next = s.Last + 1
		if s.Last < from {
			continue
		}
		off := int64(segHeaderLen)
		prevNow := uint64(0)
		for lsn := s.First; lsn <= s.Last; lsn++ {
			n, nowNs, err := readRecord(b[off:], prevNow, &img, &rec)
			if err != nil {
				// The scan above validated these very bytes.
				return last, fmt.Errorf("wal: %s: record %d: %w", s.Path, lsn, err)
			}
			off += int64(n)
			prevNow = nowNs
			if lsn < from {
				continue
			}
			if err := fn(lsn, nowNs, &rec); err != nil {
				return last, err
			}
			last = lsn
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
	bases, err := segBases(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	if len(bases) == 0 {
		return 0, nil
	}
	last := bases[len(bases)-1]
	path := filepath.Join(dir, segName(last))
	info, err := scanSegment(path, last)
	if err != nil {
		return 0, err
	}
	if info.TornBytes == 0 {
		return 0, nil
	}
	if info.Bytes < segHeaderLen {
		// Not even the header survived: drop the whole segment file.
		if err := os.Remove(path); err != nil {
			return 0, err
		}
		return info.TornBytes, nil
	}
	if err := os.Truncate(path, info.Bytes); err != nil {
		return 0, err
	}
	return info.TornBytes, nil
}
