package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dta/internal/obs/trace"
	"dta/internal/snapshot"
	"dta/internal/vfs"
	"dta/internal/wal/waltest"
	"dta/internal/wire"
)

// recoverImage recovers from the crash image of dir and returns the last
// LSN restored, checking every record's content on the way.
func recoverImage(t *testing.T, d *waltest.Disk, dir string) uint64 {
	t.Helper()
	img := t.TempDir()
	if err := d.CrashImage(dir, img); err != nil {
		t.Error(err)
		return 0
	}
	next := uint64(1)
	got, err := Recover(vfs.OS{}, img, &snapshot.Snapshot{}, nil, func(lsn, _ uint64, rec *wire.StagedReport) error {
		if lsn != next {
			t.Errorf("crash image replays LSN %d after %d", lsn, next-1)
		}
		next = lsn + 1
		checkCrashRecord(t, lsn, rec)
		return nil
	})
	if err != nil {
		t.Errorf("recover crash image: %v", err)
	}
	return got.Last
}

// TestDurabilityProperty is the acknowledged ⇒ durable contract as a
// property. One goroutine appends and marks batch boundaries, two others
// call Sync whenever they like, the disk's fsync takes a random while; at
// every return of Settle or Sync the image a host crash would leave —
// each segment cut back to what a COMPLETED fsync covers — must recover
// every record appended before the call, DurableLSN must never run ahead
// of that image, and the fsyncs issued must not outnumber the commit
// requests that had something new to cover.
func TestDurabilityProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			var d waltest.Disk
			var dmu sync.Mutex // SyncDelay runs on the flusher; rng is not shared with it
			drng := rand.New(rand.NewSource(seed ^ 0x5eed))
			d.SyncDelay = func() time.Duration {
				dmu.Lock()
				defer dmu.Unlock()
				return time.Duration(drng.Intn(200)) * time.Microsecond
			}
			dir := t.TempDir()
			mode := []SyncMode{SyncBatch, SyncBatch, SyncInterval, SyncNone}[rng.Intn(4)]
			w, err := CreateScoped(&d, dir, Policy{
				Mode: mode, Interval: time.Millisecond, SegmentBytes: int64(2048 + rng.Intn(8192)),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}

			// check asserts the contract for a call that saw `seen` as
			// the last LSN before it started and has now returned.
			check := func(who string, seen uint64) {
				durable := w.DurableLSN()
				got := recoverImage(t, &d, dir)
				if got < seen {
					t.Errorf("%s returned with LSN %d appended before it, crash image recovers only %d", who, seen, got)
				}
				if got < durable {
					t.Errorf("%s: DurableLSN %d ahead of the crash image (%d)", who, durable, got)
				}
			}

			var requests atomic.Int64 // commit requests that may have had new data
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				grng := rand.New(rand.NewSource(seed*31 + int64(g)))
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						case <-time.After(time.Duration(grng.Intn(300)) * time.Microsecond):
						}
						seen := w.LastLSN()
						requests.Add(1)
						if err := w.Sync(); err != nil {
							t.Errorf("Sync: %v", err)
							return
						}
						check("Sync", seen)
					}
				}()
			}

			records := uint64(100 + rng.Intn(300))
			fresh := false // appended since the last batch boundary
			boundary := func() {
				if err := w.CommitBatch(); err != nil {
					t.Fatal(err)
				}
				if mode == SyncBatch && fresh {
					requests.Add(1)
					fresh = false
				}
			}
			for i := uint64(1); i <= records; i++ {
				if _, err := w.Append(crashRecord(i), i); err != nil {
					t.Fatal(err)
				}
				fresh = true
				switch rng.Intn(12) {
				case 0, 1: // batch boundary, not waited for
					boundary()
				case 2: // batch boundary + the wait a Drain does
					boundary()
					if err := w.Settle(); err != nil {
						t.Fatal(err)
					}
					if mode == SyncBatch {
						check("Settle", i)
					}
				case 3:
					requests.Add(1)
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
					check("Sync", i)
				}
			}
			close(stop)
			wg.Wait()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			check("Close", records)

			st := w.WStats()
			// Each rotation finalises a segment with an fsync of its own,
			// Close issues one, and under interval the flusher commits by
			// age without being asked.
			budget := requests.Load() + int64(st.Rotations) + 1
			if mode != SyncInterval && int64(d.Syncs()) > budget {
				t.Errorf("%d fsyncs for %d commit requests with new data (+%d rotations, +1 close)",
					d.Syncs(), requests.Load(), st.Rotations)
			}
			if st.Syncs+st.Rotations != uint64(d.Syncs()) {
				t.Errorf("Stats.Syncs %d + Rotations %d, the disk saw %d fsyncs", st.Syncs, st.Rotations, d.Syncs())
			}
		})
	}
}

// TestCommitCosts pins what the commit path may cost: a batch boundary
// plus the wait for it allocates nothing, a boundary with nothing new to
// cover costs no fsync, and any number of concurrent Syncs over the same
// records share one.
func TestCommitCosts(t *testing.T) {
	var d waltest.Disk
	w, err := CreateScoped(&d, t.TempDir(), Policy{Mode: SyncBatch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := stagedKW(7, []byte{1, 2, 3, 4}, 2)
	// Warm up: first segment, trace slices, the runtime's sudog cache.
	for i := 0; i < 4; i++ {
		w.Append(rec, 1)
		w.CommitBatch()
		w.Settle()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := w.Append(rec, 1); err != nil {
			t.Fatal(err)
		}
		if err := w.CommitBatch(); err != nil {
			t.Fatal(err)
		}
		if err := w.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("append + CommitBatch + Settle + Sync allocates %.1f times, want 0", allocs)
	}
	// An ingest call: a chunk of stages, the publication, the boundary
	// and the wait — no allocation, and the chunk is ONE publication (the
	// boundary finds nothing left to publish).
	pubs := w.WStats().Publishes
	const calls = 200
	allocs = testing.AllocsPerRun(calls-1, func() { // AllocsPerRun adds a warm-up call
		for i := 0; i < 32; i++ {
			if _, err := w.Stage(rec, 1, trace.Handle{}); err != nil {
				t.Fatal(err)
			}
		}
		w.Publish()
		if err := w.CommitBatch(); err != nil {
			t.Fatal(err)
		}
		if err := w.Settle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("32 stages + publish + CommitBatch + Settle allocates %.1f times, want 0", allocs)
	}
	if got := w.WStats().Publishes - pubs; got != calls {
		t.Errorf("%d ingest calls of 32 records made %d publications, want one each", calls, got)
	}

	// Nothing new: no fsync, whoever asks and however often.
	before := d.Syncs()
	for i := 0; i < 10; i++ {
		w.CommitBatch()
		if err := w.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Syncs() - before; got != 0 {
		t.Errorf("%d fsyncs with nothing new to cover, want 0", got)
	}
	if w.WStats().Syncs != uint64(d.Syncs()) {
		t.Errorf("Stats.Syncs = %d, the disk saw %d", w.WStats().Syncs, d.Syncs())
	}

	// One slow fsync in flight; eight Syncs pile up behind the same
	// records and must all be served by at most one more.
	d.SyncDelay = func() time.Duration { return 2 * time.Millisecond }
	if _, err := w.Append(rec, 2); err != nil {
		t.Fatal(err)
	}
	before = d.Syncs()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Sync(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := d.Syncs() - before; got != 1 {
		t.Errorf("8 concurrent Syncs over one record issued %d fsyncs, want 1", got)
	}
	if w.DurableLSN() != w.LastLSN() {
		t.Errorf("DurableLSN %d behind LastLSN %d after Sync", w.DurableLSN(), w.LastLSN())
	}
	if c := w.WStats(); c.Syncs != uint64(d.Syncs()) {
		t.Errorf("Stats.Syncs = %d, the disk saw %d", c.Syncs, d.Syncs())
	}
}

// TestIntervalCommitsByAge: under SyncInterval the flusher owns the
// clock — records become durable within the interval with no further
// append, CommitBatch or Sync to trigger it (the old appender-side check
// only ran when the next record arrived).
func TestIntervalCommitsByAge(t *testing.T) {
	var d waltest.Disk
	w, err := CreateScoped(&d, t.TempDir(), Policy{Mode: SyncInterval, Interval: 2 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := uint64(1); i <= 5; i++ {
		if _, err := w.Append(crashRecord(i), i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.DurableLSN() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("DurableLSN %d after 5s idle under interval=2ms, want 5", w.DurableLSN())
		}
		time.Sleep(time.Millisecond)
	}
	// One, unless the five appends themselves straddled an interval.
	if got := d.Syncs(); got < 1 || got > 5 {
		t.Errorf("%d fsyncs for five aged records", got)
	}
}

// TestWaitersSeeStickyError: a dead disk must reach whoever waits for
// durability — parked before the failure or arriving after it — and a
// waiter must not hang on a flusher that has exited.
func TestWaitersSeeStickyError(t *testing.T) {
	disk := faultDisk()
	w, err := CreateScoped(disk, t.TempDir(), Policy{Mode: SyncBatch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Park a waiter behind a slow fsync that then fails.
	disk.SetFsyncLatency(5 * time.Millisecond)
	if _, err := w.Append(stagedKW(1, []byte{1, 2, 3, 4}, 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := w.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- w.Settle() }()
	time.Sleep(time.Millisecond) // let the fsync start; either order must end in EIO
	disk.FailSticky(syscall.EIO)
	if _, err := w.Append(stagedKW(2, []byte{1, 2, 3, 4}, 2), 2); err != nil && !errors.Is(err, syscall.EIO) {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync on a dead disk = %v, want EIO", err)
	}
	select {
	case err := <-parked:
		// The parked wait's own fsync may have completed before the
		// disk died; what it must not do is hang.
		if err != nil && !errors.Is(err, syscall.EIO) {
			t.Fatalf("parked Settle = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Settle still parked 5s after the flusher failed")
	}
	if err := w.CommitBatch(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("CommitBatch after failure = %v, want EIO", err)
	}
	if err := w.Settle(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Settle after failure = %v, want EIO", err)
	}
	if err := w.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close after failure = %v, want EIO", err)
	}
	// The flusher is gone: waits return the error instead of parking.
	for name, wait := range map[string]func() error{"Sync": w.Sync, "Settle": w.Settle, "Flush": w.Flush} {
		done := make(chan error, 1)
		go func() { done <- wait() }()
		select {
		case err := <-done:
			if !errors.Is(err, syscall.EIO) {
				t.Errorf("%s after Close = %v, want EIO", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hangs on an exited flusher", name)
		}
	}
}

// TestDegradedSyncReasks: in degraded-ack mode a Sync over records that
// were already degraded-acked is still a request — it is counted, and
// every degradeProbeEvery-th one probes the disk — so repeated SyncWAL
// calls on an idle log do reach a real fsync once the disk has healed.
func TestDegradedSyncReasks(t *testing.T) {
	disk := faultDisk()
	w, err := CreateScoped(disk, t.TempDir(), Policy{DegradeFsync: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	disk.SetFsyncLatency(3 * time.Millisecond)
	for i := 0; i <= degradeEnterAfter; i++ {
		if _, err := w.Append(stagedKW(uint64(i), []byte{1, 2, 3, 4}, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.WStats(); !st.Degraded || st.DegradedAcks == 0 || w.DurableLSN() == w.LastLSN() {
		t.Fatalf("want a degraded writer with an un-durable, acknowledged tail: %+v", st)
	}
	disk.SetFsyncLatency(0) // healed; nothing more is appended
	// Each Sync waits for a commit of its own — a counted ack or the probe
	// — so a probe comes due every degradeProbeEvery calls with no sleeping
	// for it. (Two rounds: the probe is timed against the bound, and a
	// descheduled flusher may fail one.)
	before := w.WStats()
	calls := uint64(0)
	for ; calls < 2*degradeProbeEvery && w.WStats().Degraded; calls++ {
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := w.WStats()
	if st.Degraded {
		t.Fatalf("%d idle Syncs never probed a healed disk: %+v", calls, st)
	}
	if acks, probes := st.DegradedAcks-before.DegradedAcks, st.Syncs-before.Syncs; acks+probes != calls || probes == 0 {
		t.Fatalf("%d Syncs were served by %d degraded acks + %d probes, want one commit each", calls, acks, probes)
	}
	if w.DurableLSN() != w.LastLSN() {
		t.Fatalf("probe left DurableLSN %d behind LastLSN %d", w.DurableLSN(), w.LastLSN())
	}
}
