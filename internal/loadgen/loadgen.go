// Package loadgen generates deterministic DTA report workloads: N
// concurrent reporter goroutines drive any Reporter implementation (the
// synchronous dta reporters or the async engine reporters) through one
// of several scenario profiles. Throughput claims are only meaningful
// under diverse, adversarial input distributions, so beyond the uniform
// baseline the generator covers Zipf-skewed key popularity, bursty
// on/off sources, incast (everyone hammering a tiny hot key set) and a
// mixed-primitive blend of all four DTA primitives.
//
// Everything derives from Config.Seed: reporter i draws from its own
// PRNG seeded as a pure function of (Seed, i), so the same config
// produces the same key/primitive sequence per reporter — and therefore
// the same per-shard report counts — regardless of goroutine scheduling.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dta/internal/wire"
)

// Reporter is the submission surface the generator drives; dta.Reporter
// satisfies it, whatever it is attached to.
type Reporter interface {
	KeyWrite(key wire.Key, data []byte, n int) error
	Increment(key wire.Key, delta uint64, n int) error
	Postcard(key wire.Key, hop, pathLen int) error
	Append(list uint32, data []byte) error
}

// Kind selects a workload scenario.
type Kind int

const (
	// Uniform draws keys uniformly from the key space.
	Uniform Kind = iota
	// Zipf draws keys Zipf-skewed: a few keys dominate, stressing
	// translator aggregation and single-shard hot spots.
	Zipf
	// Bursty alternates on-bursts of back-to-back reports with idle
	// gaps, stressing queue sizing and backpressure.
	Bursty
	// Incast makes every reporter hammer the same tiny hot key set
	// concurrently, concentrating load on few shards.
	Incast
	// Mixed blends all four DTA primitives over uniform keys.
	Mixed
)

func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Bursty:
		return "bursty"
	case Incast:
		return "incast"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ProfileByName resolves a scenario name ("uniform", "zipf", "bursty",
// "incast", "mixed") to its default profile.
func ProfileByName(name string) (Profile, error) {
	for _, k := range []Kind{Uniform, Zipf, Bursty, Incast, Mixed} {
		if k.String() == name {
			return Profile{Kind: k}, nil
		}
	}
	return Profile{}, fmt.Errorf("loadgen: unknown profile %q", name)
}

// Profile parameterises a scenario. Zero values select sane defaults.
type Profile struct {
	Kind Kind
	// Keys is the key-space size (0 = 1<<16).
	Keys uint64
	// ZipfS/ZipfV shape the Zipf distribution (0 = 1.2 / 1).
	ZipfS float64
	ZipfV float64
	// BurstLen is reports per on-burst (0 = 256); BurstIdle is the off
	// gap between bursts (0 = 200µs). Bursty only.
	BurstLen  int
	BurstIdle time.Duration
	// HotKeys is the incast hot set size (0 = 4).
	HotKeys uint64
	// Lists is the Append list ID space (0 = 8).
	Lists uint32
	// Redundancy is the Key-Write/Increment redundancy n (0 = 2).
	Redundancy int
	// Hops is the postcard path length (0 = 5).
	Hops int
}

func (p Profile) withDefaults() Profile {
	if p.Keys == 0 {
		p.Keys = 1 << 16
	}
	if p.ZipfS == 0 {
		p.ZipfS = 1.2
	}
	if p.ZipfV == 0 {
		p.ZipfV = 1
	}
	if p.BurstLen == 0 {
		p.BurstLen = 256
	}
	if p.BurstIdle == 0 {
		p.BurstIdle = 200 * time.Microsecond
	}
	if p.HotKeys == 0 {
		p.HotKeys = 4
	}
	if p.Lists == 0 {
		p.Lists = 8
	}
	if p.Redundancy == 0 {
		p.Redundancy = 2
	}
	if p.Hops == 0 {
		p.Hops = 5
	}
	return p
}

// Action is a failure-schedule verb.
type Action int

const (
	// Kill marks a collector failed (e.g. HACluster.SetDown).
	Kill Action = iota
	// Restore revives a collector (e.g. HACluster.SetUp).
	Restore
	// Partition cuts the reporter→collector link to Collector (the
	// collector stays alive for queries and resync; writes skip it).
	Partition
	// PartitionPeer cuts the peer link Collector↔Peer both ways:
	// neither can read the other's state or WAL during resync.
	PartitionPeer
	// SlowDisk injects Event.FsyncLat of latency into every fsync on
	// Collector's WAL disk (0 heals the disk).
	SlowDisk
	// Skew offsets Collector's clock by Event.Skew (may be negative;
	// 0 removes the skew).
	Skew
	// Heal clears every chaos fault on Collector (-1 = the whole
	// cluster): partitions, disk faults and clock skew.
	Heal
)

func (a Action) String() string {
	switch a {
	case Kill:
		return "kill"
	case Restore:
		return "restore"
	case Partition:
		return "partition"
	case PartitionPeer:
		return "partition-peer"
	case SlowDisk:
		return "slowdisk"
	case Skew:
		return "skew"
	case Heal:
		return "heal"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Event is one failure-schedule entry: apply Action to Collector once
// the run has submitted an After fraction of its planned reports.
// Anchoring to report progress rather than wall time keeps scenarios
// meaningful across machines of very different speeds.
type Event struct {
	// After is the trigger point as a fraction [0,1] of the run's total
	// planned reports (Reporters × Reports).
	After float64
	// Action is what to do.
	Action Action
	// Collector is the target collector index (-1 = all, Heal only).
	Collector int
	// Peer is the second collector of a PartitionPeer link.
	Peer int
	// FsyncLat is SlowDisk's injected per-fsync latency (0 heals).
	FsyncLat time.Duration
	// Skew is Skew's clock offset (negative rewinds; 0 heals).
	Skew time.Duration
}

// flapCycles is how many partition/heal rounds a flap entry expands to.
const flapCycles = 3

// ParseSchedule parses a compact schedule spec of comma-separated
// `action@fraction=target` entries. The grammar:
//
//	kill@0.25=1          mark collector 1 down
//	restore@0.75=1       revive collector 1
//	partition@0.3=1      cut the reporter→collector 1 link
//	partition@0.3=1:2    cut the peer link between collectors 1 and 2
//	flap@0.2=1/0.05      flap collector 1's reporter link: 3 cut/heal
//	                     cycles, one transition every 0.05 of the run,
//	                     ending healed
//	slowdisk@0.4=1:50ms  inject 50ms into every fsync on collector 1
//	skew@0.5=1:+2s       skew collector 1's clock forward 2s (-1s rewinds)
//	heal@0.8=*           clear every chaos fault cluster-wide (or =1 for
//	                     one collector)
//
// flap is pure syntax: it expands into Partition/Heal events, so the
// returned schedule is the fully explicit plan. An empty spec is an
// empty schedule.
func ParseSchedule(spec string) ([]Event, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Event
	for _, part := range strings.Split(spec, ",") {
		head, target, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: schedule entry %q: want action@fraction=target", part)
		}
		action, frac, ok := strings.Cut(head, "@")
		if !ok {
			return nil, fmt.Errorf("loadgen: schedule entry %q: want action@fraction=target", part)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(frac), 64)
		if err != nil || !(f >= 0 && f <= 1) { // NaN is not in range either
			return nil, fmt.Errorf("loadgen: schedule entry %q: fraction must be in [0,1]", part)
		}
		evs, err := parseEntry(strings.TrimSpace(action), f, strings.TrimSpace(target))
		if err != nil {
			return nil, fmt.Errorf("loadgen: schedule entry %q: %w", part, err)
		}
		out = append(out, evs...)
	}
	return out, nil
}

// parseEntry resolves one action/target pair into its events (one,
// except for flap's expansion).
func parseEntry(action string, f float64, target string) ([]Event, error) {
	ev := Event{After: f}
	switch action {
	case "kill", "restore":
		if action == "kill" {
			ev.Action = Kill
		} else {
			ev.Action = Restore
		}
		n, err := parseCollector(target)
		if err != nil {
			return nil, err
		}
		ev.Collector = n
		return []Event{ev}, nil
	case "partition":
		a, b, ok := strings.Cut(target, ":")
		n, err := parseCollector(a)
		if err != nil {
			return nil, err
		}
		ev.Collector = n
		if !ok {
			ev.Action = Partition
			return []Event{ev}, nil
		}
		p, err := parseCollector(b)
		if err != nil {
			return nil, err
		}
		if p == n {
			return nil, fmt.Errorf("peer link %d:%d is a self-loop", n, p)
		}
		ev.Action, ev.Peer = PartitionPeer, p
		return []Event{ev}, nil
	case "flap":
		a, b, ok := strings.Cut(target, "/")
		if !ok {
			return nil, fmt.Errorf("want collector/period, e.g. 1/0.05")
		}
		n, err := parseCollector(a)
		if err != nil {
			return nil, err
		}
		period, err := strconv.ParseFloat(b, 64)
		if err != nil || !(period > 0 && period <= 0.5) {
			return nil, fmt.Errorf("flap period must be in (0,0.5]")
		}
		// Round the accumulated fractions so the expanded plan formats
		// cleanly (0.3, not 0.30000000000000004).
		frac := func(x float64) float64 { return min(math.Round(x*1e9)/1e9, 1) }
		evs := make([]Event, 0, 2*flapCycles)
		for c := 0; c < flapCycles; c++ {
			at := f + float64(2*c)*period
			evs = append(evs,
				Event{After: frac(at), Action: Partition, Collector: n},
				Event{After: frac(at + period), Action: Heal, Collector: n})
		}
		return evs, nil
	case "slowdisk":
		a, b, ok := strings.Cut(target, ":")
		if !ok {
			return nil, fmt.Errorf("want collector:latency, e.g. 1:50ms")
		}
		n, err := parseCollector(a)
		if err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(b)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad fsync latency %q", b)
		}
		ev.Action, ev.Collector, ev.FsyncLat = SlowDisk, n, d
		return []Event{ev}, nil
	case "skew":
		a, b, ok := strings.Cut(target, ":")
		if !ok {
			return nil, fmt.Errorf("want collector:offset, e.g. 1:+2s")
		}
		n, err := parseCollector(a)
		if err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(b)
		if err != nil {
			return nil, fmt.Errorf("bad clock offset %q", b)
		}
		ev.Action, ev.Collector, ev.Skew = Skew, n, d
		return []Event{ev}, nil
	case "heal":
		ev.Action = Heal
		if target == "*" {
			ev.Collector = -1
			return []Event{ev}, nil
		}
		n, err := parseCollector(target)
		if err != nil {
			return nil, err
		}
		ev.Collector = n
		return []Event{ev}, nil
	default:
		return nil, fmt.Errorf("unknown action %q (want kill, restore, partition, flap, slowdisk, skew or heal)", action)
	}
}

func parseCollector(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad collector index %q", s)
	}
	return n, nil
}

// FormatSchedule renders events back into the ParseSchedule grammar
// (flap entries appear expanded — the explicit plan a run executes).
func FormatSchedule(evs []Event) string {
	parts := make([]string, len(evs))
	for i, ev := range evs {
		switch ev.Action {
		case PartitionPeer:
			parts[i] = fmt.Sprintf("partition@%g=%d:%d", ev.After, ev.Collector, ev.Peer)
		case SlowDisk:
			parts[i] = fmt.Sprintf("slowdisk@%g=%d:%s", ev.After, ev.Collector, ev.FsyncLat)
		case Skew:
			parts[i] = fmt.Sprintf("skew@%g=%d:%s", ev.After, ev.Collector, ev.Skew)
		case Heal:
			if ev.Collector < 0 {
				parts[i] = fmt.Sprintf("heal@%g=*", ev.After)
				continue
			}
			parts[i] = fmt.Sprintf("heal@%g=%d", ev.After, ev.Collector)
		default:
			parts[i] = fmt.Sprintf("%s@%g=%d", ev.Action, ev.After, ev.Collector)
		}
	}
	return strings.Join(parts, ",")
}

// ScheduleNeedsChaos reports whether any event requires a chaos plane
// (anything beyond plain kill/restore health flips).
func ScheduleNeedsChaos(evs []Event) bool {
	for _, ev := range evs {
		switch ev.Action {
		case Kill, Restore:
		default:
			return true
		}
	}
	return false
}

// Config describes one load-generation run.
type Config struct {
	Profile Profile
	// Reporters is the number of concurrent reporter goroutines (0 = 4).
	Reporters int
	// Reports is the report count per reporter (0 = 10000).
	Reports int
	// Seed fixes every reporter's key/primitive sequence.
	Seed int64
	// Drain, if non-nil, runs after all reporters finish and its time is
	// included in Elapsed — pass the engine's Drain so throughput covers
	// full ingestion, not just enqueueing.
	Drain func() error
	// Schedule lists failure events to inject while the run progresses;
	// requires Control. Events fire in After order; any still unfired
	// when the reporters finish (e.g. a restore at 1.0) are applied
	// before Drain, so a scheduled recovery always happens.
	Schedule []Event
	// Control applies one event to the system under test (e.g. mapping
	// Kill to HACluster.SetDown and Restore to SetUp). It runs on the
	// scheduler goroutine, concurrently with the reporters — which is
	// the point: failures strike mid-run.
	Control func(Event) error
}

func (c Config) withDefaults() Config {
	c.Profile = c.Profile.withDefaults()
	if c.Reporters == 0 {
		c.Reporters = 4
	}
	if c.Reports == 0 {
		c.Reports = 10000
	}
	return c
}

// Defaulted returns the config with every default applied — exactly
// what Run executes. Drivers use it to align verification parameters
// (e.g. the Key-Write redundancy to query with) instead of duplicating
// the default values.
func (c Config) Defaulted() Config { return c.withDefaults() }

// Result summarises a run.
type Result struct {
	// Submitted counts reports handed to the Reporter without error,
	// summed and per reporter goroutine.
	Submitted   uint64
	PerReporter []uint64
	// Errors counts failed submissions (first error retained in Err).
	Errors uint64
	Err    error
	// Elapsed spans goroutine start through the optional Drain.
	Elapsed time.Duration
	// EventsFired counts schedule events applied (all of them, unless
	// the run aborted on an error first).
	EventsFired int
}

// Throughput returns submitted reports per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Submitted) / r.Elapsed.Seconds()
}

// Run drives cfg.Reporters goroutines, each owning the Reporter returned
// by newReporter(i). newReporter runs on the producer goroutine, so it
// may build goroutine-local state (buffers, encoders).
func Run(cfg Config, newReporter func(i int) Reporter) (Result, error) {
	cfg = cfg.withDefaults()
	if newReporter == nil {
		return Result{}, fmt.Errorf("loadgen: nil newReporter")
	}
	if p := cfg.Profile; p.Kind == Zipf && (p.ZipfS <= 1 || p.ZipfV < 1) {
		// rand.NewZipf returns nil outside this domain, which would
		// panic in every reporter goroutine.
		return Result{}, fmt.Errorf("loadgen: zipf needs s > 1 and v >= 1 (got s=%v v=%v)", p.ZipfS, p.ZipfV)
	}
	if len(cfg.Schedule) > 0 && cfg.Control == nil {
		return Result{}, fmt.Errorf("loadgen: schedule without Control")
	}
	res := Result{PerReporter: make([]uint64, cfg.Reporters)}
	var (
		wg        sync.WaitGroup
		errCount  atomic.Uint64
		firstErr  atomic.Pointer[error]
		submitted atomic.Uint64 // run-wide progress, drives the schedule
	)
	fail := func(err error) {
		errCount.Add(1)
		firstErr.CompareAndSwap(nil, &err)
	}
	start := time.Now()

	// The scheduler fires events as the submission counter crosses each
	// threshold; whatever is left when the reporters finish is applied
	// synchronously afterwards, so scheduled recoveries always happen.
	//
	// The gate holds the next unfired event's threshold: reporters pause
	// once the counter reaches it and resume when the event has fired.
	// Without it the scheduler goroutine can starve (1-CPU boxes, -race
	// builds) and fire adjacent events back to back long past their
	// scheduled progress points, collapsing the fault window a test
	// meant to open.
	var fired atomic.Uint64
	var gate atomic.Uint64
	schedule := append([]Event(nil), cfg.Schedule...)
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].After < schedule[j].After })
	total := uint64(cfg.Reporters) * uint64(cfg.Reports)
	threshold := func(ev Event) uint64 { return uint64(ev.After * float64(total)) }
	// The first gate is armed here, before any reporter exists: armed by
	// the scheduler goroutine instead, a late-starting scheduler lets the
	// reporters run the whole workload ungated, and every event then
	// fires back to back at the end — a kill→restore window with no
	// writes in it.
	gate.Store(math.MaxUint64)
	if len(schedule) > 0 {
		gate.Store(threshold(schedule[0]))
	}
	stop := make(chan struct{})
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		// Whatever path exits this goroutine, reporters must not stay
		// paused at a gate nobody will ever open.
		defer gate.Store(math.MaxUint64)
		for _, ev := range schedule {
			at := threshold(ev)
			gate.Store(at)
			for submitted.Load() < at {
				select {
				case <-stop:
					return
				default:
				}
				// Plain sleep, not time.After: a fresh timer allocation
				// every 100µs for the whole run would be GC pressure in
				// a throughput-measurement harness.
				time.Sleep(100 * time.Microsecond)
			}
			if err := cfg.Control(ev); err != nil {
				fail(err)
				return
			}
			// No gate release here: reporters stay paused at the crossed
			// threshold until the next iteration stores the following
			// event's threshold (or the deferred release runs), so they
			// cannot surge past event k+1 in the gap between firings.
			fired.Add(1)
		}
	}()

	for i := 0; i < cfg.Reporters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := newReporter(i)
			n, err := drive(cfg, i, rep, &submitted, &gate)
			if err == nil {
				// Batching reporters (e.g. the engine's) stage frames
				// locally; push them out before this goroutine exits so
				// cfg.Drain covers every submitted report.
				if f, ok := rep.(interface{ Flush() error }); ok {
					err = f.Flush()
				}
			}
			res.PerReporter[i] = n
			if err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-schedDone
	for _, ev := range schedule[fired.Load():] {
		if errCount.Load() > 0 {
			break
		}
		if err := cfg.Control(ev); err != nil {
			fail(err)
			break
		}
		fired.Add(1)
	}
	res.EventsFired = int(fired.Load())
	if cfg.Drain != nil {
		if err := cfg.Drain(); err != nil {
			fail(err)
		}
	}
	res.Elapsed = time.Since(start)
	for _, n := range res.PerReporter {
		res.Submitted += n
	}
	res.Errors = errCount.Load()
	if p := firstErr.Load(); p != nil {
		res.Err = *p
	}
	return res, res.Err
}

// reporterSeed mixes the run seed with the reporter index (splitmix64
// increment) so per-reporter streams are decorrelated but reproducible.
func reporterSeed(seed int64, i int) int64 {
	return seed + int64(i)*-0x61c8864680b583eb
}

// report is one generated submission before it reaches a Reporter.
type report struct {
	op    int // 0 KeyWrite, 1 Increment, 2 Postcard, 3 Append
	key   uint64
	delta uint64
	hop   int
	list  uint32
}

// stream derives reporter i's deterministic report sequence. drive
// (submission) and WrittenKeys (verification) both consume it, so what
// a run writes and what a verifier later expects can never diverge.
type stream struct {
	p    Profile
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(cfg Config, i int) *stream {
	s := &stream{p: cfg.Profile, rng: rand.New(rand.NewSource(reporterSeed(cfg.Seed, i)))}
	if s.p.Kind == Zipf {
		s.zipf = rand.NewZipf(s.rng, s.p.ZipfS, s.p.ZipfV, s.p.Keys-1)
	}
	return s
}

func (s *stream) next() report {
	var r report
	switch s.p.Kind {
	case Zipf:
		r.key = s.zipf.Uint64()
	case Incast:
		r.key = s.rng.Uint64() % s.p.HotKeys
	default:
		r.key = s.rng.Uint64() % s.p.Keys
	}
	if s.p.Kind == Mixed {
		r.op = s.rng.Intn(4)
	}
	switch r.op {
	case 1:
		r.delta = 1 + r.key%16
	case 2:
		r.hop = s.rng.Intn(s.p.Hops)
	case 3:
		r.list = uint32(s.rng.Uint32()) % s.p.Lists
	}
	return r
}

// KeyWriteValue returns the payload every generated Key-Write for keyID
// carries: verification recomputes the expected value from the key.
func KeyWriteValue(keyID uint64) [4]byte {
	return [4]byte{byte(keyID >> 24), byte(keyID >> 16), byte(keyID >> 8), byte(keyID)}
}

// WrittenKeys replays the run's PRNG streams without submitting anything
// and returns the deduplicated, sorted set of key IDs the run Key-Writes
// (the full key set for single-primitive profiles, the KeyWrite subset
// for Mixed). Combined with KeyWriteValue it lets a driver check, after
// a failure scenario, which acknowledged writes survived.
func WrittenKeys(cfg Config) []uint64 {
	cfg = cfg.withDefaults()
	seen := make(map[uint64]struct{})
	for i := 0; i < cfg.Reporters; i++ {
		st := newStream(cfg, i)
		for n := 0; n < cfg.Reports; n++ {
			if r := st.next(); r.op == 0 {
				seen[r.key] = struct{}{}
			}
		}
	}
	keys := make([]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// AppendedKeys replays the run's PRNG streams without submitting
// anything and returns, per Append list, the key IDs whose entries the
// run appends (duplicates preserved: lists are multisets, not sets —
// every entry is KeyWriteValue of its key). Only the Mixed profile
// appends; other profiles return an empty map. Combined with the ring
// contents after a failure scenario it lets a driver measure how much
// of each list's history survived and was resynced.
func AppendedKeys(cfg Config) map[uint32][]uint64 {
	cfg = cfg.withDefaults()
	out := make(map[uint32][]uint64)
	for i := 0; i < cfg.Reporters; i++ {
		st := newStream(cfg, i)
		for n := 0; n < cfg.Reports; n++ {
			if r := st.next(); r.op == 3 {
				out[r.list] = append(out[r.list], r.key)
			}
		}
	}
	return out
}

// drive submits cfg.Reports reports from reporter i, bumping submitted
// after each success (the schedule's progress clock). It stops at the
// first submission error: under the engine's Block policy errors mean
// the pipeline is broken, not congested.
func drive(cfg Config, i int, rep Reporter, submitted, gate *atomic.Uint64) (uint64, error) {
	p := cfg.Profile
	st := newStream(cfg, i)
	data := make([]byte, 4)
	var sent uint64
	for n := 0; n < cfg.Reports; n++ {
		r := st.next()
		key := wire.KeyFromUint64(r.key)
		v := KeyWriteValue(r.key)
		copy(data, v[:])

		var err error
		switch r.op {
		case 0:
			err = rep.KeyWrite(key, data, p.Redundancy)
		case 1:
			err = rep.Increment(key, r.delta, p.Redundancy)
		case 2:
			err = rep.Postcard(key, r.hop, p.Hops)
		case 3:
			err = rep.Append(r.list, data)
		}
		if err != nil {
			return sent, fmt.Errorf("loadgen: reporter %d report %d: %w", i, n, err)
		}
		sent++
		submitted.Add(1)
		// Pause at the next scheduled event's threshold until the
		// scheduler has fired it (see the gate in Run): fault windows
		// open at their scheduled progress points even when the
		// scheduler goroutine is slow to wake.
		for submitted.Load() >= gate.Load() {
			time.Sleep(20 * time.Microsecond)
		}
		if p.Kind == Bursty && (n+1)%p.BurstLen == 0 {
			time.Sleep(p.BurstIdle)
		}
	}
	return sent, nil
}
