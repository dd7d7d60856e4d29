// Package vfs is the one seam between the log, its images and the disk:
// every operation of internal/wal and internal/snapshot that changes the
// disk goes through an FS (OS, or a test or chaos disk decorating it).
// Reads stay on os: recovery reads real directories, crash images too.
package vfs

import "os"

// File is a file opened for writing: the subset of *os.File the log and
// the image writer use.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is every operation that changes the disk. SyncDir fsyncs a
// directory, making the names created, renamed or removed in it survive
// a host crash.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	SyncDir(dir string) error
}

// OS is the operating system's file system. OpenFile hands out the
// *os.File itself: a write costs no wrapper.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read: nothing for Close to report
	return d.Sync()
}
