// Package waltest is a model disk for durability tests: a recording
// vfs.FS. It keeps the ordered trace of every operation that changes the
// disk, remembers for every file opened through it how many bytes have
// been written and how many of those a COMPLETED Sync covers — and which
// file names a completed directory sync covers — and can produce the
// image a host crash would leave: each file cut back to its synced
// prefix, a file whose name was never synced gone. Tests recover from
// that image to prove "returned ⇒ durable" instead of assuming it, and
// count fsyncs instead of timing them. The bytes reach the OS, but no
// fsync reaches the disk: its own fsync time is not a test's to assert.
// (It does not import wal, so wal's own tests can use it.)
package waltest

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dta/internal/vfs"
)

// Disk is the shared state behind every file opened through it. The
// zero value is ready to use.
type Disk struct {
	// SyncDelay, when set, is how long each Sync and directory sync
	// takes (a slow or jittery disk). Called on the syncing goroutine.
	SyncDelay func() time.Duration

	syncs atomic.Int64

	mu    sync.Mutex
	files map[string]*extent // by file name
	named map[string]bool    // files whose directory entry is durable
	trace []Op
}

// Op is one operation that changed the disk, in the order the disk saw
// it: "open" (for writing), "write" (consecutive writes to one file are
// one Op), "sync", "syncdir", "rename", "remove", "truncate" or "mkdir".
type Op struct {
	Op    string
	Path  string
	To    string // a rename's new name
	Bytes int64  // written; covered by a sync; the size truncated to
}

// extent is one file's byte accounting.
type extent struct {
	written int64
	synced  int64
}

// File is one file opened through the disk.
type File struct {
	d  *Disk
	f  *os.File
	ex *extent
}

// record appends op to the trace. Called under d.mu.
func (d *Disk) record(op Op) {
	if n := len(d.trace) - 1; op.Op == "write" && n >= 0 && d.trace[n].Op == "write" && d.trace[n].Path == op.Path {
		d.trace[n].Bytes += op.Bytes
		return
	}
	d.trace = append(d.trace, op)
}

// do runs a change to the disk and records it if it succeeded.
func (d *Disk) do(op Op, err error) error {
	if err == nil {
		d.mu.Lock()
		d.record(op)
		d.mu.Unlock()
	}
	return err
}

// Trace returns the operations so far, in order.
func (d *Disk) Trace() []Op {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Op(nil), d.trace...)
}

// OpenFile opens name for writing and tracks it. Bytes already in the
// file (a reopened segment) count as written and synced, and its name as
// durable: they survived whatever came before. A file that is empty was
// created just now, and its name is not durable until its directory is
// synced.
func (d *Disk) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	var size int64
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.files == nil {
		d.files = make(map[string]*extent)
		d.named = make(map[string]bool)
	}
	ex := &extent{written: size, synced: size}
	d.files[name] = ex
	if size > 0 {
		d.named[name] = true
	}
	d.record(Op{Op: "open", Path: name})
	return &File{d: d, f: f, ex: ex}, nil
}

func (d *Disk) Rename(oldpath, newpath string) error {
	return d.do(Op{Op: "rename", Path: oldpath, To: newpath}, os.Rename(oldpath, newpath))
}

func (d *Disk) Remove(name string) error {
	return d.do(Op{Op: "remove", Path: name}, os.Remove(name))
}

func (d *Disk) Truncate(name string, size int64) error {
	return d.do(Op{Op: "truncate", Path: name, Bytes: size}, os.Truncate(name, size))
}

func (d *Disk) MkdirAll(path string, perm os.FileMode) error {
	return d.do(Op{Op: "mkdir", Path: path}, os.MkdirAll(path, perm))
}

// SyncDir covers the names in dir that files opened through the disk
// have, and is not counted in Syncs.
func (d *Disk) SyncDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if d.SyncDelay != nil {
		time.Sleep(d.SyncDelay())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range ents {
		if path := filepath.Join(dir, e.Name()); d.files[path] != nil {
			d.named[path] = true
		}
	}
	d.record(Op{Op: "syncdir", Path: dir})
	return nil
}

func (f *File) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	f.d.mu.Lock()
	f.ex.written += int64(n)
	f.d.record(Op{Op: "write", Path: f.f.Name(), Bytes: int64(n)})
	f.d.mu.Unlock()
	return n, err
}

// Sync covers the bytes written before it began, and only once it has
// returned — a crash in the middle of an fsync promises nothing.
func (f *File) Sync() error {
	f.d.mu.Lock()
	upto := f.ex.written
	f.d.mu.Unlock()
	if f.d.SyncDelay != nil {
		time.Sleep(f.d.SyncDelay())
	}
	f.d.mu.Lock()
	if upto > f.ex.synced {
		f.ex.synced = upto
	}
	f.d.record(Op{Op: "sync", Path: f.f.Name(), Bytes: upto})
	f.d.mu.Unlock()
	if strings.HasSuffix(f.f.Name(), segSuffix) {
		f.d.syncs.Add(1)
	}
	return nil
}

func (f *File) Close() error { return f.f.Close() }

// segSuffix names the log's segment files (wal's segSuffix, not
// imported: wal's tests import this package).
const segSuffix = ".wseg"

// Syncs returns how many Syncs have completed on the disk's segment
// files. Image, meta and directory syncs are in the trace only.
func (d *Disk) Syncs() int { return int(d.syncs.Load()) }

// CrashImage writes into dst what a host crash right now would leave of
// src: every tracked file cut back to its synced prefix — or missing, if
// no directory sync covers its name — and every other regular file
// (what a rename put in place: checkpoints, metadata) whole. Safe to
// call while the writer runs.
func (d *Disk) CrashImage(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(src, e.Name())
		d.mu.Lock()
		ex, tracked := d.files[path]
		var keep int64
		if tracked {
			keep = ex.synced
		}
		lost := tracked && !d.named[path]
		d.mu.Unlock()
		if lost {
			continue
		}
		if err := copyPrefix(path, filepath.Join(dst, e.Name()), keep, tracked); err != nil {
			return err
		}
	}
	return nil
}

func copyPrefix(src, dst string, n int64, limited bool) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limited {
		r = io.LimitReader(in, n)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
