// Package chaos is the fault-injection plane: the injectable faults
// the HA cluster and the WAL thread through their normal code paths, so
// failure scenarios run against the production logic, not a mock of
// it. The faults are:
//
//   - asymmetric reporter→collector link partitions (CutReporter);
//   - symmetric peer↔peer resync partitions (CutPeers);
//   - added latency on every fsync under a collector's log directory:
//     segments, directory syncs, images (Disk.SetFsyncLatency);
//   - a sticky errno that fails every later open for writing, write and
//     fsync there, checkpoints included — a dead disk (Disk.FailSticky).
//
// A Disk decorates any vfs.FS; the cluster writes a collector's log and
// images through it.
//
// Per-collector clock skew lives on the System's clock hooks. None of
// the faults draws randomness: a chaos run reproduces from its schedule
// and the seed its cluster gives the resync retry jitter.
//
// Everything is designed for the hot paths it touches: a disabled
// fault costs one nil check or one relaxed atomic load, and every knob
// is safe to flip concurrently with ingest (faults strike mid-run —
// that is the point).
package chaos

import (
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"dta/internal/vfs"
)

// MaxNodes bounds the partition matrix; it matches ha.MaxMembers (not
// imported, to keep this package leaf-level below internal/ha).
const MaxNodes = 64

// Plane owns every injectable fault for one cluster: per-collector
// disks and the link-partition matrix. The zero value is unusable; use
// NewPlane. A nil *Plane is a valid "chaos disabled" value for every
// query method.
type Plane struct {
	// rep[i] cuts the reporter→collector i link: fan-out writers skip i
	// (counted as degraded, exactly like a down replica) while queries
	// and resync still reach it — the asymmetric half of a partition.
	rep [MaxNodes]atomic.Bool
	// peer is the symmetric peer↔peer resync matrix, row-major: a cut
	// pair cannot serve each other's resyncs (snapshot or log-shipping)
	// until healed.
	peer [MaxNodes * MaxNodes]atomic.Bool
	// disks[i] is collector i's disk, over the OS's file system.
	disks [MaxNodes]Disk
}

// NewPlane builds a fault plane with no fault injected.
func NewPlane() *Plane {
	p := &Plane{}
	for i := range p.disks {
		p.disks[i].FS = vfs.OS{}
	}
	return p
}

// Disk returns collector i's fault-injection disk (i < MaxNodes).
func (p *Plane) Disk(i int) *Disk { return &p.disks[i] }

// CutReporter severs the reporter→collector i link.
func (p *Plane) CutReporter(i int) {
	if uint(i) < MaxNodes {
		p.rep[i].Store(true)
	}
}

// HealReporter restores the reporter→collector i link.
func (p *Plane) HealReporter(i int) {
	if uint(i) < MaxNodes {
		p.rep[i].Store(false)
	}
}

// ReporterCut reports whether fan-out writers must skip collector i.
// Nil-safe and on the ingest hot path: one nil check when chaos is off,
// one atomic load when on.
func (p *Plane) ReporterCut(i int) bool {
	if p == nil || uint(i) >= MaxNodes {
		return false
	}
	return p.rep[i].Load()
}

// CutPeers severs the resync path between collectors a and b (both
// directions: the link is symmetric).
func (p *Plane) CutPeers(a, b int) {
	if uint(a) >= MaxNodes || uint(b) >= MaxNodes {
		return
	}
	p.peer[a*MaxNodes+b].Store(true)
	p.peer[b*MaxNodes+a].Store(true)
}

// HealPeers restores the resync path between a and b.
func (p *Plane) HealPeers(a, b int) {
	if uint(a) >= MaxNodes || uint(b) >= MaxNodes {
		return
	}
	p.peer[a*MaxNodes+b].Store(false)
	p.peer[b*MaxNodes+a].Store(false)
}

// PeersCut reports whether a and b are partitioned from each other.
// Nil-safe.
func (p *Plane) PeersCut(a, b int) bool {
	if p == nil || uint(a) >= MaxNodes || uint(b) >= MaxNodes {
		return false
	}
	return p.peer[a*MaxNodes+b].Load()
}

// AnyCut reports whether any reporter or peer link is currently cut.
// Nil-safe; control-plane only (scans the full matrix).
func (p *Plane) AnyCut() bool {
	if p == nil {
		return false
	}
	for i := range p.rep {
		if p.rep[i].Load() {
			return true
		}
	}
	for i := range p.peer {
		if p.peer[i].Load() {
			return true
		}
	}
	return false
}

// HealNode clears every fault touching collector i: its reporter link,
// every peer link involving it, and its disk. Clock skew lives on the
// System and is healed by the caller.
func (p *Plane) HealNode(i int) {
	if p == nil || uint(i) >= MaxNodes {
		return
	}
	p.rep[i].Store(false)
	for j := 0; j < MaxNodes; j++ {
		p.peer[i*MaxNodes+j].Store(false)
		p.peer[j*MaxNodes+i].Store(false)
	}
	p.disks[i].Heal()
}

// Disk injects storage faults into the file system under it: added
// fsync latency, and a sticky errno that fails every later open for
// writing, write and fsync — a dead disk. Renames, removals and
// truncations pass through. Both knobs are atomics, safe to flip while
// the WAL flusher is mid-write. A nil *Disk is a valid no-op for Heal.
type Disk struct {
	vfs.FS // the disk underneath

	fsyncLat atomic.Int64 // ns added to every Sync
	errno    atomic.Int64 // non-zero: every op fails with this errno
}

// SetFsyncLatency adds lat to every Sync (0 = none) — the slow-disk
// fault that drives the WAL's degraded-ack mode.
func (d *Disk) SetFsyncLatency(lat time.Duration) { d.fsyncLat.Store(int64(lat)) }

// FailSticky makes every subsequent operation fail with errno — the
// disk is dead until Heal.
func (d *Disk) FailSticky(errno syscall.Errno) { d.errno.Store(int64(errno)) }

// Heal clears every fault. Nil-safe.
func (d *Disk) Heal() {
	if d == nil {
		return
	}
	d.fsyncLat.Store(0)
	d.errno.Store(0)
}

// FsyncLatency returns the injected fsync latency (drivers log it).
func (d *Disk) FsyncLatency() time.Duration {
	if d == nil {
		return 0
	}
	return time.Duration(d.fsyncLat.Load())
}

// failed is the sticky errno (nil: the disk works).
func (d *Disk) failed() error {
	if e := d.errno.Load(); e != 0 {
		return syscall.Errno(e)
	}
	return nil
}

// sync is every fsync's fault: the latency, then the errno.
func (d *Disk) sync() error {
	time.Sleep(time.Duration(d.fsyncLat.Load()))
	return d.failed()
}

// OpenFile opens name underneath, the file faulted by this disk.
func (d *Disk) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if err := d.failed(); err != nil {
		return nil, err
	}
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{f, d}, nil
}

func (d *Disk) SyncDir(dir string) error {
	if err := d.sync(); err != nil {
		return err
	}
	return d.FS.SyncDir(dir)
}

// faultFile is a file opened through a Disk. Close never injects: a dead
// disk must still release its descriptor, or every chaos run would leak
// files.
type faultFile struct {
	vfs.File
	d *Disk
}

func (ff faultFile) Write(p []byte) (int, error) {
	if err := ff.d.failed(); err != nil {
		return 0, err
	}
	return ff.File.Write(p)
}

func (ff faultFile) Sync() error {
	if err := ff.d.sync(); err != nil {
		return err
	}
	return ff.File.Sync()
}
