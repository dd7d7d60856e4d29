package wal

import (
	"errors"
	"io"
	"os"
	"syscall"
	"testing"
	"time"

	"dta/internal/chaos"
	"dta/internal/obs/journal"
	"dta/internal/vfs"
	"dta/internal/wal/waltest"
	"dta/internal/wire"
)

// faultDisk is the disk these tests inject faults into: chaos's
// decorator (fsync latency, the sticky errno) over a recording disk that
// performs no real fsync, so which side of a latency bound a HEALTHY
// fsync falls is the test's, not the host disk's.
func faultDisk() *chaos.Disk { return &chaos.Disk{FS: &waltest.Disk{}} }

// shortFS stores half of every write to a file opened through it and
// reports the write short.
type shortFS struct{ vfs.FS }

type shortFile struct{ vfs.File }

func (s shortFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return shortFile{f}, nil
}

func (f shortFile) Write(p []byte) (int, error) {
	if len(p) < 2 {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	return n, io.ErrShortWrite
}

// countEvents tallies journal events by type.
func countEvents(j *journal.Journal) map[journal.Type]int {
	events, _, _ := j.Since(0, nil)
	out := map[journal.Type]int{}
	for i := range events {
		out[events[i].Type]++
	}
	return out
}

// TestDegradedAckCycle drives the full degraded-ack state machine: a
// slow disk trips entry after degradeEnterAfter consecutive over-bound
// fsyncs, degraded Syncs ack at the flush barrier without advancing
// DurableLSN, probes keep testing the disk, and a healed probe exits
// with DurableLSN catching up. Both transitions are journaled.
func TestDegradedAckCycle(t *testing.T) {
	disk := faultDisk()
	w, err := CreateScoped(disk, t.TempDir(), Policy{DegradeFsync: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := journal.New(256)
	w.SetJournal(journal.Emitter{J: j, Comp: journal.CompWAL})

	sync := func(i int) {
		t.Helper()
		if _, err := w.Append(stagedKW(uint64(i), []byte{1, 2, 3, 4}, 2), uint64(i)*10); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy disk: every Sync fsyncs, DurableLSN tracks LastLSN.
	sync(0)
	if st := w.WStats(); st.Degraded || st.DegradedAcks != 0 {
		t.Fatalf("healthy writer degraded: %+v", st)
	}
	if w.DurableLSN() != w.LastLSN() {
		t.Fatal("healthy Sync left DurableLSN behind")
	}

	// Slow disk: degradeEnterAfter consecutive over-bound fsyncs enter
	// degraded mode.
	disk.SetFsyncLatency(5 * time.Millisecond)
	for i := 1; i <= degradeEnterAfter; i++ {
		sync(i)
	}
	if st := w.WStats(); !st.Degraded {
		t.Fatalf("still not degraded after %d slow fsyncs: %+v", degradeEnterAfter, st)
	}
	if n := countEvents(j)[journal.EvWALDegradeEnter]; n != 1 {
		t.Fatalf("degrade-enter events = %d, want 1", n)
	}

	// Degraded Syncs ack without fsyncing: DurableLSN holds while
	// LastLSN advances, and the skipped fsyncs are counted.
	durableAtEnter := w.DurableLSN()
	for i := 0; i < degradeProbeEvery-1; i++ {
		sync(100 + i)
	}
	st := w.WStats()
	if st.DegradedAcks != degradeProbeEvery-1 {
		t.Fatalf("DegradedAcks = %d, want %d", st.DegradedAcks, degradeProbeEvery-1)
	}
	if w.DurableLSN() != durableAtEnter {
		t.Fatalf("degraded Syncs advanced DurableLSN %d → %d", durableAtEnter, w.DurableLSN())
	}
	if w.LastLSN() <= durableAtEnter {
		t.Fatal("LastLSN did not advance past the durable watermark")
	}

	// The next Sync is a probe; the disk is still slow, so the writer
	// stays degraded.
	sync(200)
	if st := w.WStats(); !st.Degraded {
		t.Fatal("slow probe exited degraded mode")
	}

	// Heal the disk: the next probe comes back under the bound and
	// exits, with DurableLSN catching up at that fsync.
	disk.SetFsyncLatency(0)
	for i := 0; i < degradeProbeEvery && w.WStats().Degraded; i++ {
		sync(300 + i)
	}
	if st := w.WStats(); st.Degraded {
		t.Fatalf("healed disk still degraded: %+v", st)
	}
	if n := countEvents(j)[journal.EvWALDegradeExit]; n != 1 {
		t.Fatalf("degrade-exit events = %d, want 1", n)
	}
	if w.DurableLSN() != w.LastLSN() {
		t.Fatalf("exit probe left DurableLSN %d behind LastLSN %d", w.DurableLSN(), w.LastLSN())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedCloseForcesFsync: Close while degraded must still fsync
// (forced), so a clean shutdown leaves a fully durable log even on a
// disk that was being probed.
func TestDegradedCloseForcesFsync(t *testing.T) {
	dir := t.TempDir()
	disk := faultDisk()
	w, err := CreateScoped(disk, dir, Policy{DegradeFsync: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	disk.SetFsyncLatency(3 * time.Millisecond)
	const records = degradeEnterAfter + 4
	for i := 0; i < records; i++ {
		if _, err := w.Append(stagedKW(uint64(i), []byte{9, 9, 9, 9}, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.WStats(); !st.Degraded {
		t.Fatalf("writer not degraded before Close: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything replays: the forced Close fsync persisted the tail the
	// degraded acks had left volatile.
	var n int
	if _, err := Replay(dir, 1, func(uint64, uint64, *wire.StagedReport) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("replayed %d records, want %d", n, records)
	}
}

// TestShortWritesRetried: a disk that truncates every write still ends
// up with a byte-exact log — the flusher retries the remainder — and
// the records replay intact.
func TestShortWritesRetried(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateScoped(shortFS{vfs.OS{}}, dir, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const records = 300
	for i := 0; i < records; i++ {
		if _, err := w.Append(stagedKW(uint64(i), []byte{byte(i), 1, 2, 3}, 2), uint64(i)*7); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var n int
	if _, err := Replay(dir, 1, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
		i := int(lsn - 1)
		if nowNs != uint64(i)*7 {
			t.Fatalf("record %d nowNs = %d, want %d", i, nowNs, i*7)
		}
		key, _ := rec.KeyWriteArgs()
		if *key != wire.KeyFromUint64(uint64(i)) {
			t.Fatalf("record %d key mismatch", i)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("replayed %d records, want %d", n, records)
	}
}

// TestStickyErrnoSurfaced: a dead disk fails the flusher sticky, the
// errno lands in Stats.FailedErrno (the /healthz wal_failed rule's
// source), the failure is journaled with the errno, and appenders see
// the error instead of wedging.
func TestStickyErrnoSurfaced(t *testing.T) {
	disk := faultDisk()
	w, err := CreateScoped(disk, t.TempDir(), Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	j := journal.New(64)
	w.SetJournal(journal.Emitter{J: j, Comp: journal.CompWAL})

	disk.FailSticky(syscall.EIO)
	if _, err := w.Append(stagedKW(1, []byte{1, 2, 3, 4}, 2), 1); err != nil {
		t.Fatal(err) // the append itself is accepted; the flusher fails
	}
	if err := w.Flush(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Flush error = %v, want EIO", err)
	}
	if st := w.WStats(); st.FailedErrno != int64(syscall.EIO) {
		t.Fatalf("stats after dead disk: %+v", st)
	}
	// Sticky: healing the disk does not resurrect the writer.
	disk.Heal()
	if _, err := w.Append(stagedKW(2, []byte{1, 2, 3, 4}, 2), 2); err == nil {
		t.Fatal("append accepted on a failed log")
	}

	events, _, _ := j.Since(0, nil)
	var found bool
	for i := range events {
		if events[i].Type == journal.EvWALError && events[i].Arg1 == uint64(syscall.EIO) {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvWALError event carrying the errno")
	}
}

// TestReplayNonMonotonicTime pins the signed varint time encoding: a
// skewed clock that jumps backwards mid-log must replay byte-exact
// timestamps (chaos clock-skew faults produce exactly this shape).
func TestReplayNonMonotonicTime(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	times := []uint64{1000, 5_000_000_000, 200, 0, 3_000_000_000, 2_999_999_999}
	for i, ts := range times {
		if _, err := w.Append(stagedKW(uint64(i), []byte{4, 3, 2, 1}, 2), ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if _, err := Replay(dir, 1, func(_, nowNs uint64, _ *wire.StagedReport) error {
		got = append(got, nowNs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(times) {
		t.Fatalf("replayed %d records, want %d", len(got), len(times))
	}
	for i := range times {
		if got[i] != times[i] {
			t.Fatalf("record %d nowNs = %d, want %d", i, got[i], times[i])
		}
	}
}
