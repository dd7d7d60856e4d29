// Package snapshot persists collector store memory to disk so that
// queries can run offline (the dtacollect / dtaquery split) and restarts
// need not replay the whole log (internal/wal checkpoints): the
// collector's strength is that its structures are plain memory, so a
// snapshot is just the configuration plus the raw buffers.
//
// Who may alias, who copies. View describes the stores in place — its
// buffers ARE store memory — and exists for one use: handing them to
// Write while nothing writes the stores (System.Checkpoint and
// dtacollect, behind quiesced producers), so that an image streams out
// without a second copy of them. Capture copies, and is what everything
// else wants: HA resync peers, which outlive the barrier they were taken
// under, and files for offline queries. Who reads in place, who
// allocates: ReadInto and LoadInto land an image in a View of a fresh
// host, so a restart (wal.Recover) holds no copy of it; Read and Load
// allocate snapshots that own their buffers, for readers with no stores
// to fill (dtaquery, the fuzz targets).
//
// The image format is in codec.go: versioned, length-prefixed, CRC-32C
// per block, one pass in each direction.
package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dta/internal/collector"
	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
)

// Snapshot is the serialised form of a collector's stores.
//
// Beyond the raw buffers, a snapshot may carry replication metadata the
// HA layer attaches at capture time (all optional — offline dtacollect
// snapshots leave them nil and are replayed in full):
//
//   - AppendHeads: per-list cumulative flushed-entry counts from the
//     owning translator's batcher, so a resync can replay exactly the
//     ring suffix a rejoining collector missed and restore its head
//     pointers.
//   - *Tags + TagBlockBytes: per-block last-write epochs from the
//     collector's dirty tracker, so an incremental resync can skip
//     blocks written before the target went stale.
type Snapshot struct {
	KeyWrite     *keywrite.Config
	KeyWriteBuf  []byte
	KeyIncrement *keyincrement.Config
	KeyIncBuf    []byte
	Postcarding  *postcarding.Config
	PostcardBuf  []byte
	Append       *appendlist.Config
	AppendBuf    []byte

	// AppendHeads[l] is the cumulative (non-wrapping) number of entries
	// the capturing collector's translator had flushed into list l; the
	// ring head is AppendHeads[l] % EntriesPerList. Nil when captured
	// outside a replicated cluster.
	AppendHeads []uint64

	// Per-block last-write epoch tags (see internal/ha.Tracker), block
	// size TagBlockBytes. Nil tags mean "unknown: replay everything".
	KeyWriteTags  []uint64
	KeyIncTags    []uint64
	PostcardTags  []uint64
	TagBlockBytes int

	// WALLSN, when non-zero, makes the snapshot a WAL checkpoint: the
	// image covers every logged operation up to and including this log
	// sequence number, so recovery replays only the records above it
	// (see internal/wal).
	WALLSN uint64
}

// View describes a collector host's stores WITHOUT copying them: the
// buffers alias store memory. It is for handing the stores to Write — a
// checkpoint streams straight out of them — and is valid only while
// nothing writes the stores (producers quiesced, engine drained); whoever
// keeps a snapshot past that, or hands it to a reader that may run beside
// ingest, wants Capture.
func View(h *collector.Host) *Snapshot {
	s := &Snapshot{}
	if st := h.KeyWriteStore(); st != nil {
		cfg := st.Indexer().Config()
		s.KeyWrite, s.KeyWriteBuf = &cfg, st.Buffer()
	}
	if st := h.KeyIncrementStore(); st != nil {
		cfg := keyincrement.Config{Slots: uint64(len(st.Buffer()) / keyincrement.CounterSize)}
		s.KeyIncrement, s.KeyIncBuf = &cfg, st.Buffer()
	}
	if st := h.PostcardingStore(); st != nil {
		cfg := st.Coder().Config()
		s.Postcarding, s.PostcardBuf = &cfg, st.Buffer()
	}
	if st := h.AppendStore(); st != nil {
		cfg := st.Config()
		s.Append, s.AppendBuf = &cfg, st.Buffer()
	}
	return s
}

// Capture copies a collector host's store memory: the snapshot owns its
// buffers and stays what it was whatever the stores do next (HA resync
// peers, offline query files).
func Capture(h *collector.Host) *Snapshot {
	s := View(h)
	for _, b := range s.bufs() {
		*b = bytes.Clone(*b)
	}
	return s
}

// Save writes the snapshot to a file: all of it, durably, or not at all
// (WriteFileAtomic).
func (s *Snapshot) Save(path string) error {
	return WriteFileAtomic(path, "", s.Write)
}

// Load reads a snapshot from a file that holds one image and nothing
// else.
func Load(path string) (*Snapshot, error) { return load(path, nil) }

// LoadInto is ReadInto over such a file.
func LoadInto(path string, dst *Snapshot) error {
	_, err := load(path, dst)
	return err
}

func load(path string, into *Snapshot) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // only read: nothing for Close to report
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return read(f, st.Size(), into)
}

// VerifyFile is Verify over the file at path.
func VerifyFile(path string) (*Check, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // only read
	return Verify(f)
}

// syncFile is what WriteFileAtomic asks of the temporary file it fills:
// an *os.File, or what a test's failing disk made of one.
type syncFile interface {
	io.Writer
	Sync() error
	Close() error
}

// WriteFileAtomic writes a file through a temporary sibling: fill it,
// fsync it, close it — each checked — rename it over path, fsync the
// directory. Readers see the old file or the whole new one, and once it
// returns nil a host crash cannot take the new one back. With keepAs
// set, the file path named before is renamed to keepAs just before the
// swap instead of being replaced (the previous generation; none there is
// fine).
func WriteFileAtomic(path, keepAs string, fill func(io.Writer) error) error {
	return writeFileAtomic(path, keepAs, fill, func(f *os.File) syncFile { return f })
}

func writeFileAtomic(path, keepAs string, fill func(io.Writer) error, wrap func(*os.File) syncFile) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // gone already once renamed
	f := wrap(tmp)
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if keepAs != "" {
		if err := os.Rename(path, keepAs); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read
	return d.Sync()
}

// KeyWriteStore rebuilds a queryable Key-Write view.
func (s *Snapshot) KeyWriteStore() (*keywrite.Store, error) {
	if s.KeyWrite == nil {
		return nil, fmt.Errorf("snapshot: no key-write store")
	}
	return keywrite.NewStoreOver(*s.KeyWrite, s.KeyWriteBuf)
}

// KeyIncrementStore rebuilds a queryable Key-Increment view.
func (s *Snapshot) KeyIncrementStore() (*keyincrement.Store, error) {
	if s.KeyIncrement == nil {
		return nil, fmt.Errorf("snapshot: no key-increment store")
	}
	return keyincrement.NewStoreOver(*s.KeyIncrement, s.KeyIncBuf)
}

// PostcardingStore rebuilds a queryable Postcarding view.
func (s *Snapshot) PostcardingStore() (*postcarding.Store, error) {
	if s.Postcarding == nil {
		return nil, fmt.Errorf("snapshot: no postcarding store")
	}
	return postcarding.NewStoreOver(*s.Postcarding, s.PostcardBuf)
}

// AppendStore rebuilds a pollable Append view.
func (s *Snapshot) AppendStore() (*appendlist.Store, error) {
	if s.Append == nil {
		return nil, fmt.Errorf("snapshot: no append store")
	}
	return appendlist.NewStoreOver(*s.Append, s.AppendBuf)
}
