package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dta/internal/vfs"
	"dta/internal/wire"
)

// replayed is one record as a replay delivers it.
type replayed struct {
	lsn, nowNs uint64
	rec        string // the staged encoding
}

// collect returns a replay callback appending to out.
func collect(out *[]replayed) func(lsn, nowNs uint64, rec *wire.StagedReport) error {
	return func(lsn, nowNs uint64, rec *wire.StagedReport) error {
		var b [wire.MaxStagedEncodedLen]byte
		*out = append(*out, replayed{lsn, nowNs, string(b[:rec.EncodeTo(b[:])])})
		return nil
	}
}

// decodeReplayed decodes a collected record.
func decodeReplayed(t *testing.T, r replayed) *wire.StagedReport {
	t.Helper()
	var rec wire.StagedReport
	if _, err := wire.DecodeStaged([]byte(r.rec), &rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

// copyDir copies every file of src into a new temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// segmentFiles maps each segment file of dir to its bytes.
func segmentFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	bases, err := segBases(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(bases))
	for _, base := range bases {
		b, err := os.ReadFile(filepath.Join(dir, segName(base)))
		if err != nil {
			t.Fatal(err)
		}
		out[segName(base)] = string(b)
	}
	return out
}

// TestRecoverMatchesRepairThenReplay holds Recover's one scan to the two
// it replaced: over TestCrashRecoveryProperty's damage — a torn,
// truncated or bit-flipped tail, small segments so that kills land near
// rotations, a last segment cut inside its header, and a checkpoint image
// below the tail — Recover on one copy of the directory and RepairTail
// then Replay from above the image on another must deliver the same
// (LSN, nowNs, record) stream, report the same torn bytes and last LSN,
// and leave byte-identical segment files.
func TestRecoverMatchesRepairThenReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 80; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, Policy{SegmentBytes: int64(256 + rng.Intn(2048))})
			if err != nil {
				t.Fatal(err)
			}
			records := uint64(20 + rng.Intn(300))
			now := uint64(0)
			for i := uint64(1); i <= records; i++ {
				now += uint64(rng.Intn(3000))
				if _, err := w.Append(crashRecord(i), now); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			w.f.Close() // abandon without Sync

			image := uint64(0)
			if rng.Intn(2) == 0 {
				image = 1 + uint64(rng.Int63n(int64(records)))
				snap := testSnapshot()
				snap.WALLSN = image
				if _, err := WriteCheckpoint(vfs.OS{}, dir, snap); err != nil {
					t.Fatal(err)
				}
			}

			segs, err := Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			tail := segs[len(segs)-1]
			size := tail.Bytes + tail.TornBytes
			kill := segHeaderLen + rng.Int63n(size-segHeaderLen+1)
			mode := rng.Intn(4)
			switch {
			case mode == 3: // the last segment cut inside its header
				kill = rng.Int63n(segHeaderLen)
				fallthrough
			case mode == 0 || kill == size: // torn tail
				if err := os.Truncate(tail.Path, kill); err != nil {
					t.Fatal(err)
				}
			case mode == 1: // truncated segment
				if err := os.Truncate(tail.Path, segHeaderLen+(kill-segHeaderLen)/2); err != nil {
					t.Fatal(err)
				}
			default: // bit flip inside a CRC frame
				b, err := os.ReadFile(tail.Path)
				if err != nil {
					t.Fatal(err)
				}
				b[kill] ^= 1 << uint(rng.Intn(8))
				if err := os.WriteFile(tail.Path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("mode %d, cut at %d of %d, image %d", mode, kill, size, image)

			one, ref := copyDir(t, dir), copyDir(t, dir)
			var got, want []replayed
			rec, err := Recover(vfs.OS{}, one, testSnapshot(), nil, collect(&got))
			if err != nil {
				t.Fatalf("%s: Recover: %v", what, err)
			}
			removed, err := RepairTail(vfs.OS{}, ref)
			if err != nil {
				t.Fatalf("%s: RepairTail: %v", what, err)
			}
			last, err := Replay(ref, image+1, collect(&want))
			if err != nil {
				t.Fatalf("%s: Replay: %v", what, err)
			}

			if len(got) != len(want) {
				t.Fatalf("%s: Recover delivered %d records, RepairTail + Replay %d", what, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: record %d: Recover delivered LSN %d @%d, RepairTail + Replay LSN %d @%d (or the content differs)",
						what, i, got[i].lsn, got[i].nowNs, want[i].lsn, want[i].nowNs)
				}
			}
			if rec.TornBytes != removed {
				t.Fatalf("%s: Recover truncated %d torn bytes, RepairTail %d", what, rec.TornBytes, removed)
			}
			if wantLast := max(last, image); rec.Last != wantLast {
				t.Fatalf("%s: Recover restored to %d, RepairTail + Replay to %d", what, rec.Last, wantLast)
			}
			gotSegs, wantSegs := segmentFiles(t, one), segmentFiles(t, ref)
			if len(gotSegs) != len(wantSegs) {
				t.Fatalf("%s: Recover left %d segments, RepairTail %d", what, len(gotSegs), len(wantSegs))
			}
			for name, b := range wantSegs {
				if gotSegs[name] != b {
					t.Fatalf("%s: segment %s differs after Recover (%dB) and RepairTail (%dB)", what, name, len(gotSegs[name]), len(b))
				}
			}
		})
	}
}

// TestCreateAfterHeaderlessTail reopens a log whose last segment is
// empty — a host crash after the segment's directory entry reached the
// disk and before its header did: the empty file is removed, and the new
// writer's records replay after the old ones.
func TestCreateAfterHeaderlessTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if _, err := w.Append(crashRecord(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(6)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err = Create(dir, Policy{}); err != nil {
		t.Fatal(err)
	}
	if lsn, err := w.Append(crashRecord(6), 6); err != nil || lsn != 6 {
		t.Fatalf("reopened writer appended LSN %d (%v), want 6", lsn, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []replayed
	if last, err := Replay(dir, 1, collect(&got)); err != nil || last != 6 || len(got) != 6 {
		t.Fatalf("replay after reopen: last %d, %d records, %v; want 6, 6", last, len(got), err)
	}
	for i, r := range got {
		checkCrashRecord(t, r.lsn, decodeReplayed(t, r))
		if r.lsn != uint64(i+1) {
			t.Fatalf("position %d holds LSN %d", i, r.lsn)
		}
	}
}
