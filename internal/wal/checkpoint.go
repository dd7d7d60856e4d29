package wal

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"dta/internal/snapshot"
	"dta/internal/translator"
	"dta/internal/wire"
)

// Checkpoint file names. Both live next to the segments and are written
// atomically (temp + rename) so a crash mid-checkpoint leaves the
// previous one intact.
const (
	checkpointName = "checkpoint.snap"
	metaName       = "wal.meta"
)

// WriteCheckpoint persists a checkpoint: a snapshot of the collector's
// stores whose WALLSN field records the log position the image covers.
// Records at or below WALLSN become redundant; TruncateBelow reclaims
// the segments wholly covered by them.
func WriteCheckpoint(dir string, snap *snapshot.Snapshot) error {
	if snap.WALLSN == 0 {
		return fmt.Errorf("wal: checkpoint snapshot has no WALLSN")
	}
	return writeAtomic(filepath.Join(dir, checkpointName), func(f *os.File) error {
		return snap.Write(f)
	})
}

// LoadCheckpoint reads the checkpoint, or returns (nil, nil) when none
// has been written.
func LoadCheckpoint(dir string) (*snapshot.Snapshot, error) {
	f, err := os.Open(filepath.Join(dir, checkpointName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snapshot.Read(f)
}

// TruncateBelow removes segments whose every record is at or below lsn
// (their successor segment's base LSN is <= lsn+1, so no record above
// lsn is lost). The segment containing lsn itself is retained: records
// are only reclaimed in whole segments. Returns the number of segment
// files removed.
func TruncateBelow(dir string, lsn uint64) (removed int, err error) {
	bases, err := segBases(dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(bases); i++ {
		// Everything in segment i is below the next segment's base.
		if bases[i+1] > lsn+1 {
			break
		}
		if err := os.Remove(filepath.Join(dir, segName(bases[i]))); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// Recover is the one canonical recovery sequence over a log directory:
// truncate any torn tail, load the checkpoint (if present) and hand it
// to restore, then stream the log records above it to apply. It returns
// the last LSN restored — the checkpoint's when the tail holds nothing
// newer, 0 for an empty log. Callers supply restore (typically an
// internal/ha.Resync of the image into fresh stores) and apply
// (typically translator.ProcessStaged).
//
// A record whose apply fails is SKIPPED and counted, not fatal: the
// log records admission, and the live pipeline also processed such a
// report, failed identically, and moved on (engine workers count sink
// errors and continue) — aborting would let one rejected report hold
// every later acknowledged record hostage on every recovery attempt.
// Log damage (Replay's own errors) still aborts.
func Recover(dir string,
	restore func(ck *snapshot.Snapshot) error,
	apply func(lsn, nowNs uint64, rec *wire.StagedReport) error,
) (last uint64, skipped int, err error) {
	if _, err := RepairTail(dir); err != nil {
		return 0, 0, err
	}
	from := uint64(1)
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		return 0, 0, err
	}
	if ck != nil {
		if err := restore(ck); err != nil {
			return 0, 0, fmt.Errorf("wal: recover checkpoint: %w", err)
		}
		from = ck.WALLSN + 1
	}
	last, err = Replay(dir, from, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
		if err := apply(lsn, nowNs, rec); err != nil {
			skipped++
		}
		return nil
	})
	if err != nil {
		return 0, skipped, err
	}
	if ck != nil && last < ck.WALLSN {
		last = ck.WALLSN
	}
	return last, skipped, nil
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
func SaveMeta(dir string, m *Meta) error {
	return writeAtomic(filepath.Join(dir, metaName), func(f *os.File) error {
		return gob.NewEncoder(f).Encode(m)
	})
}

// LoadMeta reads the geometry, or returns (nil, nil) when none exists.
func LoadMeta(dir string) (*Meta, error) {
	f, err := os.Open(filepath.Join(dir, metaName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m Meta
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("wal: meta: %w", err)
	}
	return &m, nil
}

// writeAtomic writes a file via a temp sibling + rename, fsyncing the
// file before the swap and the directory after it, so readers only ever
// see a complete image and a host crash cannot take the new name back.
func writeAtomic(path string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path), nil)
}
