package chaos

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestPlaneLinks covers the partition matrix: reporter cuts and peer
// cuts are independent, symmetric for peers, and heal correctly.
func TestPlaneLinks(t *testing.T) {
	p := NewPlane(7)
	if p.Seed() != 7 {
		t.Fatalf("Seed() = %d, want 7", p.Seed())
	}
	if p.AnyCut() {
		t.Fatal("fresh plane has cuts")
	}

	p.CutReporter(2)
	if !p.ReporterCut(2) || p.ReporterCut(1) {
		t.Fatal("reporter cut not scoped to collector 2")
	}
	if p.PeersCut(2, 3) {
		t.Fatal("reporter cut leaked into peer links")
	}
	if !p.AnyCut() {
		t.Fatal("AnyCut missed the reporter cut")
	}
	p.HealReporter(2)
	if p.ReporterCut(2) || p.AnyCut() {
		t.Fatal("reporter heal did not clear the cut")
	}

	p.CutPeers(1, 3)
	if !p.PeersCut(1, 3) || !p.PeersCut(3, 1) {
		t.Fatal("peer cut not symmetric")
	}
	if p.PeersCut(1, 2) || p.ReporterCut(1) || p.ReporterCut(3) {
		t.Fatal("peer cut leaked into other links")
	}
	if !p.AnyCut() {
		t.Fatal("AnyCut missed the peer cut")
	}
	p.HealPeers(3, 1) // either order heals
	if p.PeersCut(1, 3) || p.AnyCut() {
		t.Fatal("peer heal did not clear the cut")
	}

	// Out-of-range queries are safe and read as intact.
	if p.ReporterCut(-1) || p.ReporterCut(MaxNodes) || p.PeersCut(-1, 2) || p.PeersCut(0, MaxNodes) {
		t.Fatal("out-of-range links read as cut")
	}
}

// TestHealNode clears exactly one collector's faults: its reporter
// link, every peer link it touches, and its disk.
func TestHealNode(t *testing.T) {
	p := NewPlane(1)
	p.CutReporter(1)
	p.CutReporter(2)
	p.CutPeers(1, 3)
	p.CutPeers(2, 3)
	p.Disk(1).SetFsyncLatency(time.Millisecond)

	p.HealNode(1)
	if p.ReporterCut(1) || p.PeersCut(1, 3) || p.Disk(1).FsyncLatency() != 0 {
		t.Fatal("HealNode(1) left collector 1 faults")
	}
	if !p.ReporterCut(2) || !p.PeersCut(2, 3) {
		t.Fatal("HealNode(1) healed collector 2's faults")
	}
	p.HealAll()
	if p.AnyCut() {
		t.Fatal("HealAll left cuts")
	}
}

// TestNilPlaneSafe pins the nil-receiver contract the hot paths rely
// on: a cluster without chaos calls these on a nil plane every report.
func TestNilPlaneSafe(t *testing.T) {
	var p *Plane
	if p.ReporterCut(1) || p.PeersCut(0, 1) || p.AnyCut() {
		t.Fatal("nil plane reports cuts")
	}
	var d *Disk
	d.Heal() // must not panic
	if d.FsyncLatency() != 0 {
		t.Fatal("nil disk has latency")
	}
}

// TestDiskFaultFile drives a real file through WrapFile and checks each
// injected fault: latency, sticky errno, and short writes.
func TestDiskFaultFile(t *testing.T) {
	open := func(t *testing.T, d *Disk) interface {
		Write([]byte) (int, error)
		Sync() error
		Close() error
	} {
		t.Helper()
		f, err := os.Create(filepath.Join(t.TempDir(), "seg"))
		if err != nil {
			t.Fatal(err)
		}
		w := d.WrapFile(f)
		t.Cleanup(func() { w.Close() })
		return w
	}

	t.Run("clean", func(t *testing.T) {
		d := NewPlane(1).Disk(0)
		w := open(t, d)
		if n, err := w.Write([]byte("abcd")); n != 4 || err != nil {
			t.Fatalf("clean write = (%d, %v)", n, err)
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("clean sync: %v", err)
		}
	})

	t.Run("fsync latency", func(t *testing.T) {
		d := NewPlane(1).Disk(0)
		d.SetFsyncLatency(20 * time.Millisecond)
		w := open(t, d)
		t0 := time.Now()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(t0); el < 20*time.Millisecond {
			t.Fatalf("sync returned in %s, want >= 20ms", el)
		}
		d.Heal()
		t0 = time.Now()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		// An upper bound on elapsed time holds only on a quiet host:
		// opt-in, like the root package's overhead gate.
		if el := time.Since(t0); el > 10*time.Millisecond && os.Getenv("DTA_WALLCLOCK_GATES") != "" {
			t.Fatalf("healed sync still slow: %s", el)
		}
	})

	t.Run("sticky errno", func(t *testing.T) {
		d := NewPlane(1).Disk(0)
		d.FailSticky(syscall.EIO)
		w := open(t, d)
		if _, err := w.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("write error = %v, want EIO", err)
		}
		if err := w.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync error = %v, want EIO", err)
		}
		// Sticky means sticky: still failing on the next call...
		if _, err := w.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("second write error = %v, want EIO", err)
		}
		// ...until healed.
		d.Heal()
		if n, err := w.Write([]byte("ab")); n != 2 || err != nil {
			t.Fatalf("healed write = (%d, %v)", n, err)
		}
	})

	t.Run("short writes", func(t *testing.T) {
		d := NewPlane(1).Disk(0)
		d.SetShortWrites(true)
		w := open(t, d)
		n, err := w.Write([]byte("abcdefgh"))
		if !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("short write error = %v, want ErrShortWrite", err)
		}
		if n <= 0 || n >= 8 {
			t.Fatalf("short write wrote %d of 8, want a strict prefix", n)
		}
		// A 1-byte write cannot be shortened and must succeed.
		if n, err := w.Write([]byte("z")); n != 1 || err != nil {
			t.Fatalf("1-byte write = (%d, %v)", n, err)
		}
	})
}

// TestDiskSeedDeterminism: the jitter stream is a pure function of the
// plane seed and disk index — wall-clock delays are too noisy to
// compare, so assert on the xorshift state instead.
func TestDiskSeedDeterminism(t *testing.T) {
	a, b := NewPlane(42).Disk(5), NewPlane(42).Disk(5)
	if a.rng.Load() != b.rng.Load() {
		t.Fatalf("same seed, different disk rng state: %d vs %d", a.rng.Load(), b.rng.Load())
	}
	if c := NewPlane(43).Disk(5); c.rng.Load() == a.rng.Load() {
		t.Fatal("different seeds produced identical disk rng state")
	}
	if d := NewPlane(42).Disk(6); d.rng.Load() == a.rng.Load() {
		t.Fatal("different disks share one jitter stream")
	}

	// The stream advances as jittered ops run, and both same-seed disks
	// advance identically.
	a.SetJitter(time.Nanosecond)
	b.SetJitter(time.Nanosecond)
	before := a.rng.Load()
	a.delay(0)
	b.delay(0)
	if a.rng.Load() == before {
		t.Fatal("jittered delay did not advance the rng")
	}
	if a.rng.Load() != b.rng.Load() {
		t.Fatal("same-seed disks diverged after one jittered op")
	}
}
