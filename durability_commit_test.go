package dta

import (
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dta/internal/wal"
	"dta/internal/wal/waltest"
)

// modelWAL attaches a WAL whose segment files sit on a waltest.Disk: a
// disk that counts fsyncs and can show what a host crash would leave.
func modelWAL(t *testing.T, sys *System, dir string, pol WALPolicy, d *waltest.Disk) {
	t.Helper()
	pol.WrapFile = func(f *os.File) wal.File { return d.Wrap(f) }
	if err := sys.WithWAL(dir, pol); err != nil {
		t.Fatal(err)
	}
}

// recoveredLSN recovers a fresh system from the crash image of dir and
// returns it with the last LSN it restored.
func recoveredLSN(t *testing.T, d *waltest.Disk, dir string) (*System, uint64) {
	t.Helper()
	img := t.TempDir()
	if err := d.CrashImage(dir, img); err != nil {
		t.Error(err)
		return nil, 0
	}
	sys, err := New(fullOptions())
	if err != nil {
		t.Error(err)
		return nil, 0
	}
	last, err := sys.Recover(img)
	if err != nil {
		t.Errorf("recover crash image: %v", err)
	}
	return sys, last
}

// TestSyncWALConcurrentWithIngest: durability calls are safe beside a
// running shard worker. At the parent commit SyncWAL wrote the writer's
// plain lastSync field on the caller's goroutine while the worker's
// appends read it under the interval policy; now the interval belongs to
// the flusher and a wait only reads marks. Run under -race.
func TestSyncWALConcurrentWithIngest(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(t.TempDir(), WALPolicy{Mode: WALSyncInterval, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	eng, err := sys.Engine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, _ := sys.WALStats()
			if err := sys.SyncWAL(); err != nil {
				t.Errorf("SyncWAL: %v", err)
				return
			}
			if after, _ := sys.WALStats(); after.DurableLSN < st.LastLSN {
				t.Errorf("SyncWAL returned with DurableLSN %d, LSN %d was appended before it", after.DurableLSN, st.LastLSN)
				return
			}
		}
	}()
	rep := eng.Reporter(1)
	const reports = 20000
	for i := 0; i < reports; i++ {
		if err := rep.KeyWrite(KeyFromUint64(uint64(i)), keyData(uint64(i)), 2); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			if err := rep.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.WALStats(); st.LastLSN != reports || st.DurableLSN != reports {
		t.Fatalf("WAL stats = %+v, want %d records durable", st, reports)
	}
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAckProperty is the acknowledged ⇒ durable contract end to
// end, through the engine: a producer submits reports and drains at
// random points, a second goroutine calls SyncWAL whenever it likes, the
// disk's fsync takes a random while — and each time Drain or SyncWAL
// returns, a system recovered from what a host crash would leave (every
// segment cut back to the bytes a completed fsync covers) holds every
// report logged before the call. After a clean shutdown the recovered
// stores are byte-identical to the live ones.
func TestDurableAckProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var d waltest.Disk
		var dmu sync.Mutex
		drng := rand.New(rand.NewSource(seed + 100))
		d.SyncDelay = func() time.Duration {
			dmu.Lock()
			defer dmu.Unlock()
			return time.Duration(drng.Intn(300)) * time.Microsecond
		}
		dir := t.TempDir()
		sys, err := New(fullOptions())
		if err != nil {
			t.Fatal(err)
		}
		modelWAL(t, sys, dir, WALPolicy{Mode: WALSyncBatch, SegmentBytes: 16 << 10}, &d)
		eng, err := sys.Engine(EngineConfig{ChunkFrames: 8, Batch: 2})
		if err != nil {
			t.Fatal(err)
		}
		check := func(who string, logged uint64) {
			if _, got := recoveredLSN(t, &d, dir); got < logged {
				t.Errorf("seed %d: %s returned with %d reports logged before it, crash image recovers %d", seed, who, logged, got)
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(500 * time.Microsecond):
				}
				st, _ := sys.WALStats()
				if err := sys.SyncWAL(); err != nil {
					t.Errorf("SyncWAL: %v", err)
					return
				}
				check("SyncWAL", st.LastLSN)
			}
		}()

		rep := eng.Reporter(1)
		submitted := uint64(0)
		for i := 0; i < 1500; i++ {
			k := KeyFromUint64(uint64(i))
			// No postcards: a Drain evicts half-collected paths, and where
			// the drains fell is not in the log, so a replay would store
			// those paths whole — a known difference, not this test's.
			switch i % 3 {
			case 0:
				err = rep.KeyWrite(k, keyData(uint64(i)), 2)
			case 1:
				err = rep.Increment(k, uint64(i%7+1), 2)
			default:
				err = rep.Append(uint32(i%4), keyData(uint64(i)))
			}
			if err != nil {
				t.Fatal(err)
			}
			submitted++
			if rng.Intn(40) == 0 {
				if err := rep.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := eng.Drain(); err != nil {
					t.Fatal(err)
				}
				check("Drain", submitted)
			}
		}
		close(stop)
		wg.Wait()
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		// Engine.Close settles like Drain does.
		check("Engine.Close", submitted)
		if err := sys.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		rec, last := recoveredLSN(t, &d, dir)
		if last != submitted {
			t.Fatalf("seed %d: clean shutdown recovers %d of %d reports", seed, last, submitted)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		requireSameStores(t, rec, sys)
	}
}

// TestAckEpochFsyncBudget counts, on a disk that counts, what durability
// costs the ack path: one ack epoch the way the repository benchmark runs
// it — ten chunks submitted, reporter Flush, Drain, SyncWAL — may issue at
// most two fsyncs (the parent commit issued four to five: two blocking
// ones per worker dequeue batch, one of them covering nothing, plus an
// unconditional one in SyncWAL), and a second barrier with nothing new
// issues none.
func TestAckEpochFsyncBudget(t *testing.T) {
	var d waltest.Disk
	// A disk slow enough that the worker finishes the epoch's chunks
	// while the first commit is still in flight, as on real storage —
	// made exact, not timed: an fsync that starts inside an epoch blocks
	// until the worker has processed the epoch's last report.
	var gate atomic.Pointer[chan struct{}]
	d.SyncDelay = func() time.Duration {
		if g := gate.Load(); g != nil {
			<-*g
		}
		return 0
	}
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	modelWAL(t, sys, t.TempDir(), WALPolicy{Mode: WALSyncBatch}, &d)
	eng, err := sys.Engine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Reporter(1)
	barrier := func() {
		t.Helper()
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := sys.SyncWAL(); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	for epoch := 0; epoch < 5; epoch++ {
		before := d.Syncs()
		g := make(chan struct{})
		gate.Store(&g)
		for i := 0; i < 320; i++ { // 10 chunks of the default 32
			if err := rep.KeyWrite(KeyFromUint64(uint64(next)), keyData(uint64(next)), 2); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		stuck := time.Now().Add(10 * time.Second)
		for eng.Stats().Processed < uint64(next) && time.Now().Before(stuck) {
			time.Sleep(50 * time.Microsecond)
		}
		gate.Store(nil)
		close(g)
		if eng.Stats().Processed < uint64(next) {
			t.Fatalf("epoch %d: the worker stopped processing behind an fsync in flight", epoch)
		}
		barrier()
		got := d.Syncs() - before
		if got < 1 || got > 2 {
			t.Errorf("epoch %d: %d fsyncs for one ack epoch, want 1 or 2", epoch, got)
		}
		t.Logf("epoch %d: %d fsyncs", epoch, got)
		st, _ := sys.WALStats()
		if st.DurableLSN != uint64(next) {
			t.Errorf("epoch %d: DurableLSN %d after the barrier, want %d", epoch, st.DurableLSN, next)
		}
		before = d.Syncs()
		barrier()
		if got := d.Syncs() - before; got != 0 {
			t.Errorf("epoch %d: %d fsyncs for a barrier with nothing new, want 0", epoch, got)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.WALStats(); st.Syncs != uint64(d.Syncs()) {
		t.Errorf("WALStats.Syncs = %d, the disk saw %d fsyncs", st.Syncs, d.Syncs())
	}
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFsyncsOncePerNeed: Checkpoint makes the log durable with
// exactly the fsyncs that takes — one when records are waiting (the
// parent commit's Flush-then-Sync pair issued two under the batch
// policy), none when an earlier fsync already covers the log.
func TestCheckpointFsyncsOncePerNeed(t *testing.T) {
	for _, mode := range []wal.SyncMode{WALSyncNone, WALSyncBatch} {
		var d waltest.Disk
		sys, err := New(fullOptions())
		if err != nil {
			t.Fatal(err)
		}
		modelWAL(t, sys, t.TempDir(), WALPolicy{Mode: mode}, &d)
		rep := sys.Reporter(1)
		ingestMixed(t, rep, 0, 50)
		lsn, err := sys.Checkpoint()
		if err != nil || lsn != 400 {
			t.Fatalf("%v: Checkpoint = %d, %v; want LSN 400", mode, lsn, err)
		}
		if got := d.Syncs(); got != 1 {
			t.Errorf("%v: first checkpoint issued %d log fsyncs, want 1", mode, got)
		}
		if _, err := sys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := d.Syncs(); got != 1 {
			t.Errorf("%v: checkpoint of an already durable log issued %d more fsyncs, want 0", mode, got-1)
		}
		ingestMixed(t, rep, 50, 60)
		if err := sys.Flush(); err != nil { // waits for its own commit under batch
			t.Fatal(err)
		}
		want := 1
		if mode == WALSyncBatch {
			want = 2
		}
		if got := d.Syncs(); got != want {
			t.Errorf("%v: Flush left the disk at %d fsyncs, want %d", mode, got, want)
		}
		if _, err := sys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := d.Syncs(); got != 2 {
			t.Errorf("%v: disk saw %d fsyncs in all, want 2", mode, got)
		}
		if err := sys.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		if got := d.Syncs(); got != 2 {
			t.Errorf("%v: CloseWAL of a durable log issued %d more fsyncs, want 0", mode, got-2)
		}
	}
}
