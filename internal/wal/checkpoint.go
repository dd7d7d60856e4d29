package wal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dta/internal/core/appendlist"
	"dta/internal/obs/journal"
	"dta/internal/snapshot"
	"dta/internal/translator"
	"dta/internal/vfs"
	"dta/internal/wire"
)

// Checkpoint file names. All live next to the segments and are written
// atomically (temp + rename), so a crash mid-checkpoint leaves the files
// that were there intact. The directory keeps two generations of image:
// the newest and the one before it.
const (
	checkpointName = "checkpoint.snap"
	checkpointPrev = "checkpoint.prev"
	metaName       = "wal.meta"
)

// generations lists the image files, newest first.
var generations = [2]string{checkpointName, checkpointPrev}

// WriteCheckpoint persists a checkpoint: a snapshot of the collector's
// stores whose WALLSN field records the log position the image covers.
// The image that was newest until now becomes checkpoint.prev — if it
// still verifies, block by block; one that does not is simply replaced
// and the older generation stays. floor is the LSN at or below which the
// log is no longer needed: the WALLSN of the OLDER of the two images, so
// that losing the newest still leaves an image and every record above
// it. It is 0 (reclaim nothing) while there is no verified older image.
func WriteCheckpoint(fs vfs.FS, dir string, snap *snapshot.Snapshot) (floor uint64, err error) {
	if snap.WALLSN == 0 {
		return 0, fmt.Errorf("wal: checkpoint snapshot has no WALLSN")
	}
	path, keepAs := filepath.Join(dir, checkpointName), ""
	if ck, err := snapshot.VerifyFile(path); err == nil {
		floor, keepAs = ck.WALLSN, filepath.Join(dir, checkpointPrev)
	}
	if err := snapshot.WriteFileAtomic(fs, path, keepAs, snap.Write); err != nil {
		return 0, err
	}
	return floor, nil
}

// Checkpoint is the one write-and-truncate sequence: persist snap as the
// newest image (WriteCheckpoint), reclaim the segments neither generation
// needs (TruncateBelow its floor) and journal both under cause (0 mints a
// chain). snap may alias store memory (snapshot.View): it is only read,
// and the caller keeps producers quiesced until Checkpoint returns.
func Checkpoint(fs vfs.FS, dir string, snap *snapshot.Snapshot, jr journal.Emitter, cause uint64) (removed int, err error) {
	floor, err := WriteCheckpoint(fs, dir, snap)
	if err != nil {
		return 0, err
	}
	if removed, err = TruncateBelow(fs, dir, floor); err != nil {
		return removed, err
	}
	if cause == 0 {
		cause = jr.NewCause()
	}
	jr.Emit(journal.EvCheckpoint, journal.SevInfo, cause, snap.WALLSN, 0, 0)
	if removed > 0 {
		jr.Emit(journal.EvWALTruncate, journal.SevInfo, cause, floor, uint64(removed), 0)
	}
	return removed, nil
}

// loadCheckpoint reads the newest image that verifies into the stores
// into describes: checkpoint.snap, or checkpoint.prev when that one is
// missing (a crash between the two renames) or damaged. passedOver is not
// a failure: it names each image that is there and could not be read.
// lsn is the image's WALLSN, 0 when none could be. An image laid out
// unlike the stores is an error, not damage: one deployment wrote both.
func loadCheckpoint(dir string, into *snapshot.Snapshot) (lsn uint64, passedOver, err error) {
	for _, name := range generations {
		err := snapshot.LoadInto(filepath.Join(dir, name), into)
		switch {
		case err == nil:
			return into.WALLSN, passedOver, nil
		case errors.Is(err, snapshot.ErrGeometry):
			return 0, passedOver, fmt.Errorf("wal: recover checkpoint %s: %w", name, err)
		case !os.IsNotExist(err):
			passedOver = errors.Join(passedOver, fmt.Errorf("%s: %w", name, err))
		}
	}
	return 0, passedOver, nil
}

// ImageCheck is VerifyCheckpoints' finding for one generation.
type ImageCheck struct {
	Name  string          // file name inside the directory
	Check *snapshot.Check // per-section verdicts; nil when the header itself is unreadable
	Err   error           // nil: the image verifies; os.IsNotExist: there is none
}

// VerifyCheckpoints walks both image generations, newest first, block by
// block (snapshot.Verify: one block of memory, whatever the image size).
func VerifyCheckpoints(dir string) [2]ImageCheck {
	var out [2]ImageCheck
	for i, name := range generations {
		ck, err := snapshot.VerifyFile(filepath.Join(dir, name))
		out[i] = ImageCheck{Name: name, Check: ck, Err: err}
	}
	return out
}

// checkpointLSN is the log position of the newest image that verifies
// (0: none does).
func checkpointLSN(dir string) uint64 {
	for _, g := range VerifyCheckpoints(dir) {
		if g.Err == nil {
			return g.Check.WALLSN
		}
	}
	return 0
}

// TruncateBelow removes segments whose every record is at or below lsn
// (their successor segment's base LSN is <= lsn+1, so no record above
// lsn is lost). The segment containing lsn itself is retained: records
// are only reclaimed in whole segments. Returns the number of segment
// files removed.
func TruncateBelow(fs vfs.FS, dir string, lsn uint64) (removed int, err error) {
	bases, err := segBases(dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(bases); i++ {
		// Everything in segment i is below the next segment's base.
		if bases[i+1] > lsn+1 {
			break
		}
		if err := fs.Remove(filepath.Join(dir, segName(bases[i]))); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// Recovered is what Recover found and did.
type Recovered struct {
	// Last is the last LSN restored — the image's when the tail holds
	// nothing newer, 0 for an empty log.
	Last uint64
	// Skipped counts records whose apply failed.
	Skipped int
	// ImageLSN is the WALLSN of the image read into the stores (0: none,
	// the log was replayed from its first record).
	ImageLSN uint64
	// AppendHeads are that image's Append counts, now the batcher's.
	AppendHeads []uint64
	// TornBytes counts the torn log tail truncated (0: it ended cleanly).
	TornBytes int64
	// PassedOver is non-nil when a newer image than that was there and
	// damaged: the recovery is still exact, the file wants looking at.
	PassedOver error
}

// Recover is the one canonical recovery sequence over a log directory:
// remove a last segment shorter than its header, read the newest
// checkpoint image that verifies into the stores into describes (a
// snapshot.View of a fresh host: the image lands in its regions), set
// heads — the Append batcher, nil only without an Append store — to the
// image's counts, then stream the log records above the image to apply
// (typically the translator's ingest entry) and, in the same scan, find
// where the last segment stops being intact: once the replay is through,
// a torn tail is truncated there. The log is read once, through one read
// buffer whatever the image or log size; a recovery that fails leaves
// the segments as it found them, bar a header-less last one.
//
// A damaged image is passed over for checkpoint.prev, then for the whole
// log, its bytes zeroed again: hence a fresh host. Recover refuses to
// replay a log that no longer reaches back to the image it read (or to
// LSN 1 without one): two generations of image and truncation below the
// older make that a doubly damaged directory, not a state to rebuild
// stores from.
//
// A record whose apply fails is SKIPPED and counted, not fatal: the
// log records admission, and the live pipeline also processed such a
// report, failed identically, and moved on (engine workers count sink
// errors and continue) — aborting would let one rejected report hold
// every later acknowledged record hostage on every recovery attempt.
// Log damage (Replay's own errors) still aborts.
func Recover(fs vfs.FS, dir string, into *snapshot.Snapshot, heads *appendlist.Batcher,
	apply func(lsn, nowNs uint64, rec *wire.StagedReport) error,
) (rec Recovered, err error) {
	bases, removed, err := dropHeaderlessTail(fs, dir)
	rec.TornBytes = removed
	if err != nil {
		return rec, err
	}
	if rec.ImageLSN, rec.PassedOver, err = loadCheckpoint(dir, into); err != nil {
		return rec, err
	}
	rec.AppendHeads = into.AppendHeads
	from := rec.ImageLSN + 1
	if len(bases) > 0 && bases[0] > from {
		err := fmt.Errorf("wal: the log starts at LSN %d, recovery needs it from %d", bases[0], from)
		if rec.PassedOver != nil {
			err = fmt.Errorf("%w (%w)", err, rec.PassedOver)
		}
		return rec, err
	}
	for l, n := range rec.AppendHeads {
		if err := heads.SyncList(l, n); err != nil {
			return rec, fmt.Errorf("wal: recover checkpoint: %w", err)
		}
	}
	last, tail, err := replay(dir, from, make([]byte, readBufLen), func(lsn, nowNs uint64, r *wire.StagedReport) error {
		if err := apply(lsn, nowNs, r); err != nil {
			rec.Skipped++
		}
		return nil
	})
	if err != nil {
		return rec, err
	}
	torn, err := truncateTorn(fs, &tail)
	if err != nil {
		return rec, err
	}
	rec.TornBytes += torn
	rec.Last = max(last, rec.ImageLSN)
	return rec, nil
}

// Meta records the deployment geometry a log was written under, so a
// standalone reader (dtaquery -wal, dta.RecoverSystem) can rebuild the
// collector and translator the records replay through. It is exactly
// the translator's configuration: the collector's store geometries are
// the same four configs.
type Meta struct {
	Translator translator.Config
}

// SaveMeta writes the geometry next to the segments (atomic).
func SaveMeta(fs vfs.FS, dir string, m *Meta) error {
	return snapshot.WriteFileAtomic(fs, filepath.Join(dir, metaName), "", m.encode)
}

// encode writes m in the meta file's format (gob).
func (m *Meta) encode(w io.Writer) error { return gob.NewEncoder(w).Encode(m) }

// LoadMeta reads the geometry, or returns (nil, nil) when none exists.
func LoadMeta(dir string) (*Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeMeta(data)
}

// decodeMeta decodes the bytes of a meta file.
func decodeMeta(data []byte) (*Meta, error) {
	var m Meta
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("wal: meta: %w", err)
	}
	return &m, nil
}
