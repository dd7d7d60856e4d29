// Package waltest is a model disk for durability tests: it sits behind
// wal.Policy.WrapFile, remembers for every segment file how many bytes
// have been written and how many of those a COMPLETED Sync covers — and
// which file names a completed Sync of the directory covers — and can
// produce the image a host crash would leave: each file cut back to its
// synced prefix, a file whose name was never synced gone. Tests recover
// from that image to prove "returned ⇒ durable" instead of assuming it,
// and count fsyncs instead of timing them. (It does not import wal, so
// wal's own tests can use it: wrap with
// func(f *os.File) wal.File { return disk.Wrap(f) }.)
package waltest

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Disk is the shared state behind every file it wraps. The zero value
// is ready to use.
type Disk struct {
	// SyncDelay, when set, is how long each Sync takes (a slow or
	// jittery disk). Called on the syncing goroutine.
	SyncDelay func() time.Duration

	syncs atomic.Int64

	mu    sync.Mutex
	files map[string]*extent // by file name
	named map[string]bool    // files whose directory entry is durable
}

// extent is one file's byte accounting.
type extent struct {
	written int64
	synced  int64
}

// File is one wrapped segment file, or the log directory opened to be
// synced (ex == nil); it has wal.File's methods.
type File struct {
	d  *Disk
	f  *os.File
	ex *extent
}

// Wrap tracks f. Bytes already in the file (a reopened segment) count
// as written and synced, and its name as durable: they survived whatever
// came before. A file that is empty was created just now, and its name
// is not durable until its directory is synced.
func (d *Disk) Wrap(f *os.File) *File {
	st, err := f.Stat()
	if err == nil && st.IsDir() {
		return &File{d: d, f: f}
	}
	var size int64
	if err == nil {
		size = st.Size()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.files == nil {
		d.files = make(map[string]*extent)
		d.named = make(map[string]bool)
	}
	ex := &extent{written: size, synced: size}
	d.files[f.Name()] = ex
	if size > 0 {
		d.named[f.Name()] = true
	}
	return &File{d: d, f: f, ex: ex}
}

func (f *File) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	f.d.mu.Lock()
	f.ex.written += int64(n)
	f.d.mu.Unlock()
	return n, err
}

// Sync covers the bytes written before it began, and only once it has
// returned — a crash in the middle of an fsync promises nothing. On the
// directory it covers the names in it, and is not counted in Syncs.
func (f *File) Sync() error {
	if f.ex == nil {
		return f.syncDir()
	}
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
	f.d.mu.Unlock()
	f.d.syncs.Add(1)
	return nil
}

func (f *File) syncDir() error {
	ents, err := os.ReadDir(f.f.Name())
	if err != nil {
		return err
	}
	if f.d.SyncDelay != nil {
		time.Sleep(f.d.SyncDelay())
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	for _, e := range ents {
		if path := filepath.Join(f.f.Name(), e.Name()); f.d.files[path] != nil {
			f.d.named[path] = true
		}
	}
	return nil
}

func (f *File) Close() error { return f.f.Close() }

// Syncs returns how many Syncs have completed on the disk's segment
// files.
func (d *Disk) Syncs() int { return int(d.syncs.Load()) }

// CrashImage writes into dst what a host crash right now would leave of
// src: every tracked file cut back to its synced prefix — or missing, if
// no directory sync covers its name — and every other regular file
// (checkpoints, metadata — written and fsynced outside the hook) whole.
// Safe to call while the writer runs.
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
