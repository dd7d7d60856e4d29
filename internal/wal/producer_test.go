package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dta/internal/obs/trace"
	"dta/internal/wal/waltest"
	"dta/internal/wire"
)

// goldenRecord is record i of the golden sequence: all four primitives,
// payloads of every length, zero and non-zero field groups.
func goldenRecord(rng *rand.Rand, i uint64) *wire.StagedReport {
	data := make([]byte, rng.Intn(wire.MaxData+1))
	rng.Read(data)
	r := &wire.Report{Header: wire.Header{Version: wire.Version, Flags: uint8(rng.Intn(2))}}
	switch rng.Intn(4) {
	case 0:
		r.Header.Primitive = wire.PrimKeyWrite
		r.KeyWrite = wire.KeyWrite{Redundancy: uint8(1 + rng.Intn(4)), DataLen: uint16(len(data)), Key: wire.KeyFromUint64(i)}
		r.Data = data
	case 1:
		r.Header.Primitive = wire.PrimKeyIncrement
		r.KeyIncrement = wire.KeyIncrement{Redundancy: uint8(1 + rng.Intn(4)), Key: wire.KeyFromUint64(rng.Uint64()), Delta: uint64(rng.Intn(3))}
	case 2:
		r.Header.Primitive = wire.PrimPostcarding
		r.Postcard = wire.Postcard{Key: wire.KeyFromUint64(i / 5), Hop: uint8(i % 5), PathLen: 5, Value: rng.Uint32()}
	default:
		r.Header.Primitive = wire.PrimAppend
		r.Append = wire.Append{ListID: uint32(rng.Intn(8)), DataLen: uint16(len(data))}
		r.Data = data
	}
	var s wire.StagedReport
	s.Stage(r)
	return &s
}

// goldenLog writes the golden sequence into a fresh directory, chunk
// records to a publication, and returns the SHA-256 over the sorted
// directory listing and every file's bytes.
func goldenLog(t *testing.T, chunk int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, Policy{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	now := uint64(1_000_000)
	for i := uint64(1); i <= 5000; i++ {
		now += uint64(rng.Intn(2000)) // repeats and jumps: one- to two-byte deltas
		lsn, err := w.Stage(goldenRecord(rng, i), now, trace.Handle{})
		if err != nil || lsn != i {
			t.Fatalf("record %d staged as LSN %d: %v", i, lsn, err)
		}
		if i%uint64(chunk) == 0 {
			w.Publish()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSHA is goldenLog's result at the commit before the producer side
// moved into the appender (flusher-side framing, one record per ring
// slot): the log's bytes are a function of the record sequence alone.
const goldenSHA = "c573bbfdbfc9252e1a2e555d557fe7c49aacecba7b83239df6338fae8f45a516"

// TestGoldenImage: the same record sequence yields the same directory —
// names and bytes — whether every record is a publication of its own or
// thirty-two share one, and it is the directory the old writer produced.
func TestGoldenImage(t *testing.T) {
	for _, chunk := range []int{1, 32} {
		if got := goldenLog(t, chunk); got != goldenSHA {
			t.Errorf("chunk of %d: log image %s, want %s", chunk, got, goldenSHA)
		}
	}
}

// TestPublishProperty is the publication rule as a property. The
// appender stages chunks of random size and publishes each; two other
// goroutines loop over everything that is safe beside it. LastLSN never
// goes back and never shows a record of an unpublished chunk; whatever
// it showed before a Sync began is in the image a host crash would
// leave when that Sync returns; a Flush makes it readable.
func TestPublishProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			var d waltest.Disk
			var dmu sync.Mutex
			drng := rand.New(rand.NewSource(seed ^ 0x5eed))
			d.SyncDelay = func() time.Duration {
				dmu.Lock()
				defer dmu.Unlock()
				return time.Duration(drng.Intn(200)) * time.Microsecond
			}
			dir := t.TempDir()
			mode := []SyncMode{SyncBatch, SyncInterval, SyncNone}[rng.Intn(3)]
			w, err := CreateScoped(&d, dir, Policy{
				Mode: mode, Interval: time.Millisecond, SegmentBytes: int64(2048 + rng.Intn(8192)),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var published atomic.Uint64 // the appender's own count, stored after each Publish
			var staging atomic.Uint64   // stored before a chunk's first Stage: its last LSN
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				grng := rand.New(rand.NewSource(seed*31 + int64(g)))
				go func() {
					defer wg.Done()
					var last uint64
					for {
						select {
						case <-stop:
							return
						case <-time.After(time.Duration(grng.Intn(200)) * time.Microsecond):
						}
						floor := published.Load()
						seen := w.LastLSN()
						ceil := staging.Load()
						if seen < last || seen < floor {
							t.Errorf("LastLSN %d after %d, with %d published", seen, last, floor)
						}
						if seen > ceil {
							t.Errorf("LastLSN %d is past the chunk being staged (ends at %d)", seen, ceil)
						}
						if st := w.WStats(); st.LastLSN < seen || st.Appends < seen || st.DurableLSN > st.LastLSN {
							t.Errorf("WStats %+v after LastLSN %d", st, seen)
						}
						last = seen
						if grng.Intn(2) == 0 {
							if err := w.Flush(); err != nil {
								t.Errorf("Flush: %v", err)
								return
							}
							if _, readable, err := Bounds(dir); err != nil || readable < seen {
								t.Errorf("Flush returned with LSN %d appended before it, the files hold %d: %v", seen, readable, err)
							}
							continue
						}
						if err := w.Sync(); err != nil {
							t.Errorf("Sync: %v", err)
							return
						}
						if got := recoverImage(t, &d, dir); got < seen {
							t.Errorf("Sync returned with LSN %d appended before it, crash image recovers only %d", seen, got)
						}
					}
				}()
			}
			chunks := 60 + rng.Intn(60)
			var next uint64
			for c := 0; c < chunks; c++ {
				n := uint64(1 + rng.Intn(64))
				staging.Store(next + n)
				for i := uint64(0); i < n; i++ {
					next++
					if _, err := w.Stage(crashRecord(next), next, trace.Handle{}); err != nil {
						t.Fatal(err)
					}
					if got := w.LastLSN(); got != next-i-1 {
						t.Fatalf("LastLSN %d with records %d..%d staged, not published", got, next-i, next)
					}
				}
				if rng.Intn(3) == 0 {
					if err := w.CommitBatch(); err != nil { // publishes too
						t.Fatal(err)
					}
				} else {
					w.Publish()
				}
				published.Store(next)
			}
			close(stop)
			wg.Wait()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := recoverImage(t, &d, dir); got != next {
				t.Errorf("closed log recovers %d of %d records", got, next)
			}
			if st := w.WStats(); st.Appends != next || st.Publishes != uint64(chunks) {
				t.Errorf("%d appends in %d publications, want %d in %d", st.Appends, st.Publishes, next, chunks)
			}
		})
	}
}

// TestRingWrapAndStall laps the ring several times behind an fsync that
// does not return until the appender has hit the full ring: records
// framed across the ring's end, the publication forced by the wait and
// the release that ends it all have to work for the log to replay.
func TestRingWrapAndStall(t *testing.T) {
	var d waltest.Disk
	dir := t.TempDir()
	var w *Writer
	d.SyncDelay = func() time.Duration {
		for deadline := time.Now().Add(5 * time.Second); w.WStats().RingStalls == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		return 0
	}
	w, err := CreateScoped(&d, dir, Policy{Mode: SyncBatch, SegmentBytes: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, wire.MaxData)
	const records = 5 * ringBytes / 100
	for i := uint64(1); i <= records; i++ {
		payload[0], payload[1], payload[2] = byte(i), byte(i>>8), byte(i>>16)
		if _, err := w.Stage(stagedAppend(uint32(i%7), payload), i, trace.Handle{}); err != nil {
			t.Fatal(err)
		}
		if i%32 == 0 {
			if err := w.CommitBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.WStats()
	if st.RingStalls == 0 || st.RingHighWater > ringBytes || st.Bytes < 4*ringBytes {
		t.Errorf("the ring never filled, or overfilled: %+v", st)
	}
	next := uint64(1)
	last, err := Replay(dir, 1, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
		p := rec.Payload()
		if lsn != next || nowNs != lsn || len(p) != wire.MaxData || p[0] != byte(lsn) || p[1] != byte(lsn>>8) || p[2] != byte(lsn>>16) {
			t.Fatalf("record %d replays as LSN %d at %d, payload %x", next, lsn, nowNs, p[:3])
		}
		next++
		return nil
	})
	if err != nil || last != records {
		t.Fatalf("replayed %d of %d records: %v", last, records, err)
	}
}

// TestCrashAfterRotationKeepsAckedRecords: a record acknowledged in a
// freshly cut segment must survive a host crash, which takes with it
// every file whose directory entry was never fsynced.
func TestCrashAfterRotationKeepsAckedRecords(t *testing.T) {
	var d waltest.Disk
	dir := t.TempDir()
	w, err := CreateScoped(&d, dir, Policy{Mode: SyncBatch, SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := uint64(1); i <= 40; i++ {
		if _, err := w.Append(crashRecord(i), i); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := recoverImage(t, &d, dir); got != i {
			t.Fatalf("LSN %d acknowledged after %d rotations, crash image recovers %d", i, w.WStats().Rotations, got)
		}
	}
	if w.WStats().Rotations < 3 {
		t.Fatalf("only %d rotations: the cut was not exercised", w.WStats().Rotations)
	}
}
