package main

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"dta"
	"dta/internal/wal"
)

// A workload is a deployment of the public dta API plus the shape of its
// tape. All four share the run shape in run.go.

type workload struct {
	name string
	why  string
	tape tapeSpec
	// epoch is the number of reports in one ack epoch (a whole number of
	// tape frames).
	epoch int
	// opsPerSecond sizes the stream slice: a run asked to measure for S
	// seconds streams opsPerSecond×S tape ops in its slices. It is a
	// frozen constant, not a measurement: work is fixed by -seconds, the
	// time it takes is what the run measures.
	opsPerSecond int
	async        bool // reports go through an Engine
	wal          bool
	ha           bool
	// readEvery > 0 issues one verified lookup after every readEvery-th
	// report inside the stream slice (sync_readwrite).
	readEvery int
	// replicasOverride replaces haReplicas (the traced pass measures the
	// fan-out cost against an R=1 cluster).
	replicasOverride int
	options          dta.Options
}

// replicas is how many collectors receive each report.
func (w *workload) replicas() int {
	switch {
	case !w.ha:
		return 1
	case w.replicasOverride > 0:
		return w.replicasOverride
	}
	return haReplicas
}

var engineConfig = dta.EngineConfig{QueueDepth: 256, Batch: 64}

const (
	haCollectors = 4
	haReplicas   = 3
	redundancy   = 2 // n for Key-Write / Key-Increment reports and queries
)

var workloads = []workload{
	{
		name: "kw_ingest",
		why:  "Key-Write only through the async engine, no WAL/HA: the bare hot path (stage, queue, translate, craft/repatch, store write) at full strength; WAL- or HA-only changes must not move it",
		tape: tapeSpec{mix: []opKind{opKW}}, epoch: 256, opsPerSecond: 1_800_000, async: true,
		options: dta.Options{KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 22, DataSize: 4}},
	},
	{
		name: "mixed_durable",
		why:  "all four primitives in equal shares behind a sync=batch WAL, set-up by log replay: WAL append/flush/fsync, postcard cache, append batcher and KI aggregation do the work they do not do in kw_ingest",
		tape: tapeSpec{mix: []opKind{opKW, opKI, opPC, opAP}, kiZipf: true}, epoch: 320, opsPerSecond: 520_000, async: true, wal: true,
		options: dta.Options{
			KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 22, DataSize: 4},
			KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 22, AggregationRows: 1 << 12},
			Postcarding:  &dta.PostcardingOptions{Chunks: 1 << 19, Hops: pathHops, Values: switchIDs[:], Redundancy: 2},
			Append:       &dta.AppendOptions{Lists: apLists, EntriesPerList: 1 << 16, EntrySize: 8, Batch: apBatch},
		},
	},
	{
		name: "ha_r3",
		why:  "4 collectors, R=3, async HA engine, Key-Write + Key-Increment: per-replica fan-out staging and translation dominate, reads take the scan/plurality-merge path; 4 workers on 2 cores: scheduler canary",
		tape: tapeSpec{mix: []opKind{opKW, opKI}}, epoch: 256, opsPerSecond: 775_000, async: true, ha: true,
		options: dta.Options{
			KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 21, DataSize: 4},
			KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 21},
		},
	},
	{
		name: "sync_readwrite",
		why:  "synchronous Reporter on one goroutine, Key-Write + Postcarding + Key-Increment, a verified lookup after every 4th write: reads beside writes, no queue; an engine-only gain must not move it",
		tape: tapeSpec{mix: []opKind{opKW, opPC, opKI}}, epoch: 240, opsPerSecond: 1_160_000, readEvery: 4,
		options: dta.Options{
			KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 22, DataSize: 4},
			KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 22},
			Postcarding:  &dta.PostcardingOptions{Chunks: 1 << 19, Hops: pathHops, Values: switchIDs[:], Redundancy: 2},
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// reportSink is the method set *dta.Reporter and *dta.AsyncReporter share.
type reportSink interface {
	KeyWrite(key dta.Key, data []byte, n int) error
	Increment(key dta.Key, delta uint64, n int) error
	Postcard(key dta.Key, hop, pathLen int) error
	Append(list uint32, data []byte) error
}

// querier is the method set *dta.System and *dta.HACluster share.
type querier interface {
	LookupValue(key dta.Key, n int) ([]byte, bool, error)
	LookupCount(key dta.Key, n int) (uint64, error)
	LookupPath(key dta.Key, n int) ([]uint32, bool, error)
}

// fsyncLatency is what one fsync of the WAL costs in the durable
// workload, in reference-host time. The sandbox's own disk (virtio ext4)
// changes its fsync time by 3× between minutes, which made
// reports_per_s and ack_p50_us of the same code spread by up to 37 % over
// ten runs (NOISE.md); so the log is written to the real file system,
// but Sync waits a modelled time instead of on that disk. Every fsync
// the system issues still costs the run this much, so group commit and
// fewer barriers show; the sandbox's real fsync is reported apart, as
// wal.fsync_p50_us.
//
// The wait is stretched by the host slowdown of the current cycle
// (diskSlowdown): every timing is divided by that slowdown afterwards,
// and a wait that ignored it would be the one part of a run that the
// correction shrinks on a slow host instead of restoring.
const fsyncLatency = 200 * time.Microsecond

var diskSlowdown atomic.Uint64 // math.Float64bits; 0 = not calibrated yet (1.0)

func setDiskSpeed(h hostSpeed) { diskSlowdown.Store(math.Float64bits(h.slowdown())) }

type modelledFile struct{ *os.File }

// Sync blocks the calling thread in nanosleep, as an fsync blocks it in
// the kernel (time.Sleep would round a sub-millisecond wait up to the
// netpoller's 1 ms).
func (f modelledFile) Sync() error {
	wait := float64(fsyncLatency)
	if s := math.Float64frombits(diskSlowdown.Load()); s > 0 {
		wait *= s
	}
	ts := syscall.NsecToTimespec(int64(wait))
	for {
		err := syscall.Nanosleep(&ts, &ts)
		if err != syscall.EINTR {
			return err
		}
	}
}

// modelledDisk is the WAL's public file hook (wal.Policy.WrapFile).
func modelledDisk(f *os.File) wal.File { return modelledFile{f} }

// deployment is one live system under test.
type deployment struct {
	w   *workload
	sys *dta.System    // single-collector workloads
	hac *dta.HACluster // ha_r3
	eng *dta.Engine    // async workloads
	q   querier
	// reps[i] reports as switchIDs[i]; everything but postcards goes
	// through reps[0]. All are driven by the one producer goroutine.
	reps    [pathHops]reportSink
	flush   []func() error // per-reporter Flush (async only)
	apSeq   [apLists]uint64
	kwBuf   [4]byte
	apBuf   [8]byte
	pollers [apLists]*dta.AppendPoller
}

// systems lists every collector's System (hook installation, stats).
func (d *deployment) systems() []*dta.System {
	if d.hac == nil {
		return []*dta.System{d.sys}
	}
	out := make([]*dta.System, d.hac.Size())
	for i := range out {
		out[i] = d.hac.System(i)
	}
	return out
}

// newStores builds the workload's collectors without attaching reporters:
// the caller may install hooks on the translators first.
func newStores(w *workload) (*deployment, error) {
	d := &deployment{w: w}
	var err error
	if w.ha {
		if d.hac, err = dta.NewHACluster(haCollectors, w.replicas(), w.options); err != nil {
			return nil, err
		}
		d.q = d.hac
		return d, nil
	}
	if d.sys, err = dta.New(w.options); err != nil {
		return nil, err
	}
	d.q = d.sys
	return d, nil
}

// attach wires WAL, engine and reporters onto built (or recovered)
// stores. walDir is ignored unless the workload logs. hooks, if not nil,
// runs after the WAL is attached and before any worker goroutine starts:
// the only point where the translators' public hook fields may be
// wrapped without racing.
func (d *deployment) attach(walDir string, hooks func(*deployment)) error {
	w := d.w
	if w.wal {
		if err := d.sys.WithWAL(walDir, dta.WALPolicy{Mode: dta.WALSyncBatch, WrapFile: modelledDisk}); err != nil {
			return err
		}
	}
	if hooks != nil {
		hooks(d)
	}
	if w.async {
		var err error
		if w.ha {
			d.eng, err = d.hac.Engine(engineConfig)
		} else {
			d.eng, err = d.sys.Engine(engineConfig)
		}
		if err != nil {
			return err
		}
		for i, id := range switchIDs {
			r := d.eng.Reporter(id)
			d.reps[i] = r
			d.flush = append(d.flush, r.Flush)
		}
	} else {
		for i, id := range switchIDs {
			d.reps[i] = d.sys.Reporter(id)
		}
	}
	if w.options.Append != nil {
		for l := range d.pollers {
			p, err := d.sys.Poller(l)
			if err != nil {
				return err
			}
			d.pollers[l] = p
		}
	}
	return nil
}

// deploy builds a fresh, empty deployment.
func deploy(w *workload, walDir string, hooks func(*deployment)) (*deployment, error) {
	d, err := newStores(w)
	if err != nil {
		return nil, err
	}
	if err := d.attach(walDir, hooks); err != nil {
		return nil, err
	}
	return d, nil
}

// submit hands one tape op to the system.
func (d *deployment) submit(t *tape, o op, lap uint32) error {
	switch o.kind {
	case opKW:
		v := kwValue(o, lap)
		d.kwBuf = [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
		return d.reps[0].KeyWrite(kwKey(o.key), d.kwBuf[:], redundancy)
	case opKI:
		return d.reps[0].Increment(kwKey(o.key), uint64(o.val), redundancy)
	case opPC:
		id := flowID(t, o, lap)
		hop := int(o.aux)
		return d.reps[(id+uint64(hop))%pathHops].Postcard(flowKey(id), hop, pathHops)
	default:
		l := o.aux
		seq := d.apSeq[l]
		d.apSeq[l]++
		return d.reps[0].Append(uint32(l), apEntry(&d.apBuf, l, seq))
	}
}

// barrier returns once everything submitted so far is queryable and, with
// a WAL attached, durable.
func (d *deployment) barrier() error {
	if !d.w.async {
		return d.sys.Flush()
	}
	for _, f := range d.flush {
		if err := f(); err != nil {
			return err
		}
	}
	if err := d.eng.Drain(); err != nil {
		return err
	}
	if d.w.wal {
		return d.sys.SyncWAL()
	}
	return nil
}

// close stops the engine and the WAL; the stores stay readable.
func (d *deployment) close() error {
	if d.eng != nil {
		if err := d.eng.Close(); err != nil {
			return err
		}
	}
	if d.w.wal && d.sys != nil {
		return d.sys.CloseWAL()
	}
	return nil
}

// dropped counts reports the system accepted but did not process.
func (d *deployment) dropped() uint64 {
	var n uint64
	if d.eng != nil {
		st := d.eng.Stats()
		n += st.Dropped + st.Errors
	}
	for _, s := range d.systems() {
		st := s.Stats()
		n += st.RateDropped + st.LinkDropped
	}
	return n
}

// scratchDir creates a private directory under the checkout's ignored
// build directory; the benchmark writes nowhere else.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", fmt.Sprintf("run-%d-", os.Getpid()))
}
