package wal

import (
	"os"
	"testing"

	"dta/internal/obs/trace"
)

func BenchmarkWriterAppend(b *testing.B) {
	w, err := Create(b.TempDir(), Policy{})
	if err != nil {
		b.Fatal(err)
	}
	rec := stagedKW(7, []byte{1, 2, 3, 4}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(rec, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
}

func BenchmarkWriterAppendShm(b *testing.B) {
	dir, err := os.MkdirTemp("/dev/shm", "walbench-*")
	if err != nil {
		b.Skip(err)
	}
	defer os.RemoveAll(dir)
	w, err := Create(dir, Policy{})
	if err != nil {
		b.Fatal(err)
	}
	rec := stagedKW(7, []byte{1, 2, 3, 4}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(rec, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
}

// BenchmarkWriterStageChunk is the engine path's shape: thirty-two
// records to a publication.
func BenchmarkWriterStageChunk(b *testing.B) {
	w, err := Create(b.TempDir(), Policy{})
	if err != nil {
		b.Fatal(err)
	}
	rec := stagedKW(7, []byte{1, 2, 3, 4}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Stage(rec, uint64(i), trace.Handle{}); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			w.Publish()
		}
	}
	b.StopTimer()
	w.Close()
}
