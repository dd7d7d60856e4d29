package wal

import (
	"os"
	"testing"

	"dta/internal/obs/trace"
	"dta/internal/snapshot"
	"dta/internal/vfs"
	"dta/internal/wire"
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

// BenchmarkRecover is a restart's log scan: Recover of one segment of
// 64k records, the four primitives in turn, with no image, into an apply
// that does nothing. ns/record is the scan's cost per record (verify,
// decode and deliver); allocs/op is what one recovery allocates.
func BenchmarkRecover(b *testing.B) {
	const records = 64 << 10
	dir := b.TempDir()
	w, err := Create(dir, Policy{SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(1); i <= records; i++ {
		key := wire.KeyFromUint64(i * 0x9e3779b97f4a7c15)
		r := wire.Report{Header: wire.Header{Version: wire.Version}}
		switch i % 4 {
		case 0:
			r.Header.Primitive = wire.PrimKeyWrite
			r.KeyWrite = wire.KeyWrite{Redundancy: 2, DataLen: 4, Key: key}
			r.Data = []byte{byte(i), byte(i >> 8), 3, 4}
		case 1:
			r.Header.Primitive = wire.PrimAppend
			r.Append = wire.Append{ListID: uint32(i % 4), DataLen: 4}
			r.Data = []byte{byte(i), byte(i >> 8), 5, 6}
		case 2:
			r.Header.Primitive = wire.PrimKeyIncrement
			r.KeyIncrement = wire.KeyIncrement{Redundancy: 2, Key: key, Delta: i}
		default:
			r.Header.Primitive = wire.PrimPostcarding
			r.Postcard = wire.Postcard{Key: key, Hop: uint8(i % 5), PathLen: 5, Value: uint32(i)}
		}
		var s wire.StagedReport
		s.Stage(&r)
		if _, err := w.Append(&s, i*1000); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if bases, _ := segBases(dir); len(bases) != 1 {
		b.Fatalf("%d segments, want one", len(bases))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		rec, err := Recover(vfs.OS{}, dir, &snapshot.Snapshot{}, nil, func(uint64, uint64, *wire.StagedReport) error {
			n++
			return nil
		})
		if err != nil || rec.Last != records || n != records {
			b.Fatalf("recovered to %d, %d records (%v); want %d", rec.Last, n, err, records)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
