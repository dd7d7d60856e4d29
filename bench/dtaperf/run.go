package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"dta"
	"dta/internal/obs"
	"dta/internal/wire"
)

// The run shape shared by all workloads. One process, one producer
// goroutine, closed loop: set-up, then `cycles` cycles of
//
//	calibrate → stream slice → ack epochs → query block
//
// so every metric samples the whole run instead of one phase each seeing
// a different host mood. Work is fixed (by -seconds and the workload's
// frozen rate), time is what is measured; every timing is scaled by the
// cycle's calibration and reported as the median over cycles.

const (
	cycles         = 48
	epochsPerCycle = 32
	groupSize      = 64  // lookups timed together; sub-µs calls are never timed singly
	groupsPerCycle = 512 // → 32768 verified lookups per cycle
	setupOps       = 1 << 20
	setupRepeats   = 3
	// checkpointEvery cycles the durable workload checkpoints, bounding
	// its log and the final recovery.
	checkpointEvery = 16
)

type runOpts struct {
	w       *workload
	seed    uint64
	seconds int
	traced  bool
	// cycles overrides the cycle count (tests, the traced pass); 0 = cycles.
	cycles int
	// sliceOps overrides the stream-slice size (tests); 0 = from seconds.
	sliceOps int
	// setupOps overrides the set-up prefix (tests); 0 = setupOps.
	setupOps int
}

// series is one metric's per-cycle samples with the host speed each was
// taken under.
type series struct {
	raw   []float64
	speed []hostSpeed
	rate  bool // a rate (1/time) rather than a time
}

func (s *series) add(v float64, h hostSpeed) {
	s.raw = append(s.raw, v)
	s.speed = append(s.speed, h)
}

type correction int

const (
	corrNone   correction = iota
	corrFrozen            // memWeight, the correction every reported timing uses
	corrMem               // the memory kernel alone (shown for comparison only)
)

func (s *series) corrected(c correction) []float64 {
	out := make([]float64, len(s.raw))
	for i, v := range s.raw {
		slow := 1.0
		switch c {
		case corrFrozen:
			slow = s.speed[i].slowdown()
		case corrMem:
			slow = s.speed[i].slowdownAt(1)
		}
		if s.rate {
			out[i] = v * slow
		} else {
			out[i] = v / slow
		}
	}
	return out
}

// target is one verification lookup: a tape op whose key is looked up.
type target struct {
	kind opKind
	key  uint32 // KW/KI key index
	flow uint64 // PC flow id
}

// answer is what the system returned for a target, copied out of any
// store view so it can be classified after the timer has stopped.
type answer struct {
	err   error
	ok    bool
	n     uint8
	count uint64
	val   [4]byte
	path  [pathHops]uint32
}

type runner struct {
	o   runOpts
	w   *workload
	t   *tape
	m   *model
	d   *deployment
	cal *calibrator
	dir string

	pos uint64 // absolute tape ops submitted; all acknowledged at a barrier
	rng splitmix64

	submitted  uint64
	submitErrs uint64
	lookupErrs uint64
	tally      tally
	rechecked  uint64 // lookups repeated after a restart (durable workload)
	recheckBad uint64 // ... whose answer changed

	// In-slice reads (sync_readwrite): recorded during the slice,
	// classified afterwards by replaying the model to each read's moment.
	reads []target
	got   []answer

	// Traced pass.
	ctx     *traceCtx
	prod    *track
	workers []*track
	phase   int32 // current phase span id on the producer track

	res results
}

// results collects everything a run measured.
type results struct {
	genNs  float64
	setupS series

	rps, cpuNs, ackP50Us, queryP50Ns series
	ackUsAll, queryNsAll             series // every sample, for the tails
	rpsTraced                        series // traced cycles only (traced pass)
	barrierUs                        series
	allocsPerK                       []float64
	busyShare                        []float64
	checkpointS                      []float64
	host                             []hostSpeed

	before, after counters
	measuredS     float64 // wall time of the cycles
	peakRSS       float64
}

// counters is a snapshot of the public counters the per-layer metrics
// are deltas of.
type counters struct {
	// Translator counters summed over collectors.
	reports, rdmaMsgs, pcEmits, kiAggregated uint64
	eng                                      dta.EngineStats
	wal                                      dta.WALStats
	ha                                       dta.HAStats
	pc                                       uint64 // postcards inserted into translator caches
	obs                                      *obs.Snapshot
}

func (r *runner) snapshot() counters {
	var c counters
	for _, s := range r.d.systems() {
		st := s.Translator().Stats()
		c.reports += st.Reports
		c.rdmaMsgs += st.RDMAWrites + st.RDMAAtomics
		c.pcEmits += st.PostcardEmits
		c.kiAggregated += st.KIAggregated
		if pc := s.Translator().PostcardCache(); pc != nil {
			c.pc += pc.Stats.Postcards
		}
		if ws, ok := s.WALStats(); ok {
			c.wal = ws
		}
	}
	if r.d.eng != nil {
		c.eng = r.d.eng.Stats()
	}
	if r.d.hac != nil {
		c.ha = r.d.hac.HAStats()
	}
	c.obs = r.obsSnapshot()
	return c
}

func (r *runner) obsSnapshot() *obs.Snapshot {
	if r.d.hac != nil {
		return r.d.hac.Metrics().Snapshot()
	}
	return r.d.sys.Metrics().Snapshot()
}

// histSum sums a histogram's Sum and Count over all its label sets.
func histSum(s *obs.Snapshot, name string) (sum, count uint64) {
	if s == nil {
		return 0, 0
	}
	for i := range s.Values {
		if s.Values[i].Name == name {
			sum += s.Values[i].Sum
			count += s.Values[i].Count
		}
	}
	return sum, count
}

func runWorkload(o runOpts) (*runner, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	r := &runner{o: o, w: o.w, rng: splitmix64(o.seed ^ 0xABCDEF)}
	if o.cycles == 0 {
		r.o.cycles = cycles
	}
	if o.setupOps == 0 {
		r.o.setupOps = setupOps
	}
	t0 := time.Now()
	r.t = genTape(o.w.tape, o.seed)
	r.res.genNs = float64(time.Since(t0).Nanoseconds()) / float64(len(r.t.ops))
	frame := r.t.frame
	r.o.setupOps = r.o.setupOps / frame * frame
	if r.o.sliceOps == 0 {
		r.o.sliceOps = o.w.opsPerSecond * o.seconds / cycles
	}
	r.o.sliceOps = max(r.o.sliceOps/frame, 1) * frame
	r.res.rps.rate, r.res.rpsTraced.rate = true, true
	r.cal = newCalibrator()

	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	r.dir = dir
	defer os.RemoveAll(dir)

	if o.traced {
		r.ctx = &traceCtx{t0: time.Now()}
		r.prod = newTrack(r.ctx, "producer")
	}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	r.m = newModel()
	r.m.apply(r.t, 0, 0, r.o.setupOps)
	r.d.apSeq = r.m.ap
	r.pos = uint64(r.o.setupOps)
	r.submitted = r.pos

	r.res.before = r.snapshot()
	tm := time.Now()
	for c := 0; c < r.o.cycles; c++ {
		if err := r.cycle(c); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
	}
	r.res.measuredS = time.Since(tm).Seconds()
	r.res.after = r.snapshot()
	if err := r.finish(); err != nil {
		return nil, err
	}
	r.res.peakRSS = peakRSSMiB()
	return r, nil
}

// hooks wraps the translators' public hook fields with sampled timing
// closures (traced pass only). Runs before any worker goroutine exists.
func (r *runner) hooks(d *deployment) {
	r.workers = r.workers[:0]
	for i, s := range d.systems() {
		k := newTrack(r.ctx, "worker-"+strconv.Itoa(i))
		r.workers = append(r.workers, k)
		tr := s.Translator()
		emit := tr.Emit
		tr.Emit = func(pkt []byte) {
			if !k.sampled() {
				emit(pkt)
				return
			}
			i := k.begin("collector.emit", r.ctx.parent.Load(), sampleEvery)
			emit(pkt)
			k.end(i)
		}
		if logf := tr.WAL; logf != nil {
			tr.WAL = func(rec *wire.StagedReport, nowNs uint64) error {
				if !k.sampled() {
					return logf(rec, nowNs)
				}
				i := k.begin("wal.append", r.ctx.parent.Load(), sampleEvery)
				err := logf(rec, nowNs)
				k.end(i)
				return err
			}
		}
	}
}

func (r *runner) walDir() string { return filepath.Join(r.dir, "wal") }

// setUp brings a deployment to a serving state holding the first
// setupOps tape ops, setupRepeats times, and keeps the last one. Each
// repetition is timed from construction to the barrier (or to the end
// of log replay) and corrected by a calibration taken just before it.
func (r *runner) setUp() error {
	var hooks func(*deployment)
	if r.o.traced {
		hooks = r.hooks
	}
	if r.w.wal {
		// Untimed seed phase: write the log that set-up replays.
		d, err := deploy(r.w, r.walDir(), nil)
		if err != nil {
			return err
		}
		r.d = d
		r.streamPlain(0, r.o.setupOps)
		if err := d.barrier(); err != nil {
			return err
		}
		if err := d.close(); err != nil {
			return err
		}
		r.d = nil
	}
	repeats := setupRepeats
	if r.o.traced {
		repeats = 1
	}
	for rep := 0; rep < repeats; rep++ {
		runtime.GC()
		debug.FreeOSMemory()
		speed := r.cal.measure()
		setDiskSpeed(speed)
		var sp int
		if r.prod != nil {
			sp = r.prod.begin("setup", 0, 1)
		}
		t0 := time.Now()
		var d *deployment
		var err error
		if r.w.wal {
			var sys *dta.System
			if sys, err = recoverServing(r.walDir()); err != nil {
				return err
			}
			d = &deployment{w: r.w, sys: sys, q: sys}
			if rep == repeats-1 {
				err = d.attach(r.walDir(), hooks)
			}
		} else {
			if d, err = deploy(r.w, "", hooks); err != nil {
				return err
			}
			r.d = d
			r.streamPlain(0, r.o.setupOps)
			err = d.barrier()
		}
		if err != nil {
			return err
		}
		r.res.setupS.add(time.Since(t0).Seconds(), speed)
		if r.prod != nil {
			r.prod.end(sp)
		}
		if rep < repeats-1 {
			if err := d.close(); err != nil {
				return err
			}
			r.d = nil
		} else {
			r.d = d
		}
	}
	return nil
}

// recoverServing rebuilds a system from its log and flushes the
// translator state the replay rebuilt (pending Key-Increment aggregates
// sit in the translator until a flush), so every acknowledged report is
// queryable again — the state a barrier had left the live system in.
func recoverServing(dir string) (*dta.System, error) {
	sys, err := dta.RecoverSystem(dir)
	if err != nil {
		return nil, err
	}
	return sys, sys.Flush()
}

// segments calls fn for each lap-contiguous piece of n ops from abs.
func (r *runner) segments(abs uint64, n int, fn func(lap uint32, from, to int)) {
	l := uint64(len(r.t.ops))
	for n > 0 {
		lap, from := uint32(abs/l), int(abs%l)
		to := min(from+n, len(r.t.ops))
		fn(lap, from, to)
		n -= to - from
		abs += uint64(to - from)
	}
}

// streamPlain submits n ops from abs with nothing else in the loop. A
// refused report is a failed operation, counted, not a reason to stop.
func (r *runner) streamPlain(abs uint64, n int) {
	r.segments(abs, n, func(lap uint32, from, to int) {
		for _, o := range r.t.ops[from:to] {
			if err := r.d.submit(r.t, o, lap); err != nil {
				r.submitErrs++
			}
		}
	})
}

// streamSlice is streamPlain plus what a stream slice may carry: sampled
// submit spans (traced cycles) and in-slice reads (sync_readwrite).
func (r *runner) streamSlice(n int, traceOn bool) {
	if !traceOn && r.w.readEvery == 0 {
		r.streamPlain(r.pos, n)
		return
	}
	r.reads, r.got = r.reads[:0], r.got[:0]
	ack := r.pos
	k := 0
	r.segments(r.pos, n, func(lap uint32, from, to int) {
		for _, o := range r.t.ops[from:to] {
			k++
			var err error
			if traceOn && k%sampleEvery == 0 {
				i := r.prod.begin("dta.submit", r.phase, sampleEvery)
				err = r.d.submit(r.t, o, lap)
				r.prod.end(i)
			} else {
				err = r.d.submit(r.t, o, lap)
			}
			if err != nil {
				r.submitErrs++
			}
			if r.w.readEvery > 0 && k%r.w.readEvery == 0 {
				tg := r.draw(ack)
				r.reads = append(r.reads, tg)
				r.got = append(r.got, answer{})
				r.lookup(tg, &r.got[len(r.got)-1])
			}
		}
	})
}

// draw picks a verification target among acknowledged ops: uniformly
// over the last lap's worth of them, so the kinds come in the workload's
// own mix. Append ops are not looked up (they are polled), so those
// draws are repeated.
func (r *runner) draw(ack uint64) target {
	l := uint64(len(r.t.ops))
	for {
		window := min(ack, l)
		abs := ack - 1 - r.rng.next()%window
		o := r.t.ops[abs%l]
		switch o.kind {
		case opKW, opKI:
			return target{kind: o.kind, key: o.key}
		case opPC:
			return target{kind: opPC, flow: flowID(r.t, o, uint32(abs/l))}
		}
	}
}

func (r *runner) lookup(tg target, a *answer) {
	switch tg.kind {
	case opKW:
		data, ok, err := r.d.q.LookupValue(kwKey(tg.key), redundancy)
		a.err, a.ok = err, ok
		if ok {
			a.n = uint8(copy(a.val[:], data))
		}
	case opKI:
		a.count, a.err = r.d.q.LookupCount(kwKey(tg.key), redundancy)
	default:
		vals, ok, err := r.d.q.LookupPath(flowKey(tg.flow), redundancy)
		a.err, a.ok = err, ok
		if len(vals) > pathHops {
			a.err = fmt.Errorf("path of %d hops exceeds the bound %d", len(vals), pathHops)
		}
		if ok {
			a.n = uint8(copy(a.path[:], vals))
		}
	}
}

func (r *runner) classify(tg target, a *answer) class {
	if a.err != nil {
		r.lookupErrs++
		return wrong
	}
	switch tg.kind {
	case opKW:
		return r.m.classifyValue(tg.key, a.val[:a.n], a.ok)
	case opKI:
		return r.m.classifyCount(tg.key, a.count)
	default:
		return r.m.classifyPath(tg.flow, a.path[:a.n], a.ok)
	}
}

// advance moves the model over the n ops just acknowledged, classifying
// any in-slice reads at the model state of the moment they were issued.
func (r *runner) advance(n int, withReads bool) {
	every := r.w.readEvery
	if !withReads || every == 0 {
		r.segments(r.pos, n, func(lap uint32, from, to int) {
			r.m.apply(r.t, lap, from, to)
		})
	} else {
		// Frames are whole multiples of readEvery, so reads never
		// straddle a lap boundary.
		k := 0
		r.segments(r.pos, n, func(lap uint32, from, to int) {
			for i := from; i < to; i += every {
				r.m.apply(r.t, lap, i, i+every)
				r.tally.add(r.classify(r.reads[k], &r.got[k]))
				k++
			}
		})
	}
	r.pos += uint64(n)
	r.submitted += uint64(n)
}

func (r *runner) beginPhase(name string, parent int32) int {
	i := r.prod.begin(name, parent, 1)
	r.phase = r.prod.id(i)
	r.ctx.parent.Store(r.phase)
	return i
}

func (r *runner) cycle(c int) error {
	res := &r.res
	traceOn := r.o.traced && c%2 == 1 // alternate, so traced and untraced cycles share the host's moods
	var cyc int
	if r.o.traced {
		r.ctx.cycle.Store(int32(c))
		r.ctx.on.Store(traceOn)
	}
	if traceOn {
		cyc = r.prod.begin("cycle", 0, 1)
	}
	speed := r.cal.measure()
	setDiskSpeed(speed)
	res.host = append(res.host, speed)

	// Stream slice.
	n := r.o.sliceOps
	var sp, bp int
	var m0 uint64
	var busy0 uint64
	if r.o.traced {
		m0 = mallocs()
		if r.d.eng != nil {
			busy0, _ = histSum(r.obsSnapshot(), "dta_engine_batch_ns")
		}
	}
	if traceOn {
		sp = r.beginPhase("stream_slice", r.prod.id(cyc))
	}
	cpu0, t0 := cpuNow(), time.Now()
	r.streamSlice(n, traceOn)
	tb := time.Now()
	if traceOn {
		bp = r.prod.begin("dta.barrier", r.phase, 1)
	}
	if err := r.d.barrier(); err != nil {
		return err
	}
	now := time.Now()
	wall, bar, cpu := now.Sub(t0), now.Sub(tb), cpuNow()-cpu0
	if traceOn {
		r.prod.end(bp)
		r.prod.end(sp)
	}
	rps := float64(n) / wall.Seconds()
	if r.o.traced {
		res.allocsPerK = append(res.allocsPerK, float64(mallocs()-m0)/float64(n)*1000)
		if r.d.eng != nil {
			busy1, _ := histSum(r.obsSnapshot(), "dta_engine_batch_ns")
			res.busyShare = append(res.busyShare, float64(busy1-busy0)/float64(wall.Nanoseconds())/float64(r.d.eng.Shards()))
		}
	}
	if traceOn {
		res.rpsTraced.add(rps, speed)
	} else {
		res.rps.add(rps, speed)
		res.cpuNs.add(float64(cpu.Nanoseconds())/float64(n), speed)
		res.barrierUs.add(float64(bar.Nanoseconds())/1e3, speed)
	}
	r.advance(n, true)

	// Ack epochs.
	if traceOn {
		sp = r.beginPhase("ack_epochs", r.prod.id(cyc))
	}
	epochUs := make([]float64, epochsPerCycle)
	for e := range epochUs {
		var ep int
		if traceOn {
			ep = r.prod.begin("ack_epoch", r.phase, 1)
		}
		t0 := time.Now()
		r.streamPlain(r.pos, r.w.epoch)
		if err := r.d.barrier(); err != nil {
			return err
		}
		epochUs[e] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if traceOn {
			r.prod.end(ep)
		}
		r.advance(r.w.epoch, false)
		res.ackUsAll.add(epochUs[e], speed)
	}
	if traceOn {
		r.prod.end(sp)
	}
	res.ackP50Us.add(median(epochUs), speed)

	// Query block.
	if traceOn {
		sp = r.beginPhase("query_block", r.prod.id(cyc))
	}
	groupNs := make([]float64, groupsPerCycle)
	var tgs [groupSize]target
	var ans [groupSize]answer
	for g := range groupNs {
		for i := range tgs {
			tgs[i] = r.draw(r.pos)
			ans[i] = answer{}
		}
		var qp int
		if traceOn {
			qp = r.prod.begin("query_group", r.phase, 1)
		}
		t0 := time.Now()
		for i := range tgs {
			r.lookup(tgs[i], &ans[i])
		}
		groupNs[g] = float64(time.Since(t0).Nanoseconds()) / groupSize
		if traceOn {
			r.prod.end(qp)
		}
		for i := range tgs {
			r.tally.add(r.classify(tgs[i], &ans[i]))
		}
		res.queryNsAll.add(groupNs[g], speed)
	}
	res.queryP50Ns.add(median(groupNs), speed)
	r.pollAppends()
	if traceOn {
		r.prod.end(sp)
		r.prod.end(cyc)
	}

	if r.w.wal && (c+1)%checkpointEvery == 0 {
		runtime.GC() // the previous image's garbage must not decide this one's peak RSS
		t0 := time.Now()
		if _, err := r.d.sys.Checkpoint(); err != nil {
			return err
		}
		res.checkpointS = append(res.checkpointS, time.Since(t0).Seconds())
	}
	return nil
}

// pollAppends verifies every Append entry acknowledged since the last
// poll: each list must yield exactly its own sequence, in order.
func (r *runner) pollAppends() {
	for l, p := range r.d.pollers {
		if p == nil {
			continue
		}
		for r.m.polled[l] < r.m.ap[l] {
			r.tally.add(r.m.classifyEntry(l, p.Poll()))
		}
	}
}

// finish checks what only shows at the end — nothing dropped, and on
// the durable workload that a restart gives back exactly the answers the
// live system gave — and stops the deployment.
func (r *runner) finish() error {
	var tgs []target
	var live []answer
	if r.w.wal {
		// A short tail after the last checkpoint, so recovery exercises
		// image load and log replay both.
		n := r.w.epoch * epochsPerCycle
		r.streamPlain(r.pos, n)
		if err := r.d.barrier(); err != nil {
			return err
		}
		r.advance(n, false)
		r.pollAppends()
		tgs = make([]target, groupSize*groupsPerCycle)
		live = make([]answer, len(tgs))
		for i := range tgs {
			tgs[i] = r.draw(r.pos)
			r.lookup(tgs[i], &live[i])
			r.tally.add(r.classify(tgs[i], &live[i]))
		}
	}
	r.submitErrs += r.d.dropped()
	if err := r.d.close(); err != nil {
		return err
	}
	if !r.w.wal {
		return nil
	}
	r.d = nil
	runtime.GC()
	debug.FreeOSMemory()
	var sp int
	if r.prod != nil {
		sp = r.prod.begin("recovery", 0, 1)
	}
	sys, err := recoverServing(r.walDir())
	if err != nil {
		return err
	}
	if r.prod != nil {
		r.prod.end(sp)
	}
	r.d = &deployment{w: r.w, sys: sys, q: sys}
	r.rechecked = uint64(len(tgs))
	for i := range tgs {
		var a answer
		r.lookup(tgs[i], &a)
		if a.ok != live[i].ok || a.n != live[i].n || a.count != live[i].count ||
			!bytes.Equal(a.val[:], live[i].val[:]) || a.path != live[i].path {
			r.recheckBad++
		}
	}
	return nil
}

func (r *runner) attempted() uint64 { return r.submitted + r.tally.total() + r.rechecked }

// failed counts operations that did what no contract permits: reports
// refused or dropped, wrong answers, answers lost by a restart.
func (r *runner) failed() uint64 {
	return r.submitErrs + r.tally.n[wrong] + r.recheckBad
}
