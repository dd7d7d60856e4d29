// Command dtaload drives the asynchronous sharded ingest engine with a
// synthetic workload and prints a throughput/drop report. It is the
// measurement harness for DTA's headline claim — ingestion limited by
// hardware, not collector CPUs — under adversarial input shapes: Zipf
// key skew, bursty on/off sources, incast and mixed primitives.
//
//	dtaload -profile zipf -shards 4 -reporters 8 -reports 200000
//	dtaload -profile incast -policy drop -queue 64 -chunk 16
//
// With -replicas ≥ 1 the run goes through the replicated HA cluster
// instead, and -schedule injects collector failures mid-run; after the
// run the cluster is rebalanced and every key the workload wrote is
// queried back, so the report shows what a failure actually cost:
//
//	dtaload -replicas 2 -schedule 'kill@0.25=1,restore@0.75=1'
//
// With R ≥ 2 the verification recovers the acknowledged writes through
// surviving replicas; with R = 1 the same schedule loses the dead
// collector's slice — run both to see the difference.
//
// The run is deterministic for a fixed -seed: the same per-shard report
// counts come out every time regardless of scheduling.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"dta"
	"dta/internal/loadgen"
	"dta/internal/obs/journal"
	"dta/internal/reporter"
)

func main() {
	var (
		profile   = flag.String("profile", "uniform", "workload: uniform, zipf, bursty, incast, mixed")
		shards    = flag.Int("shards", 4, "collectors (engine shards)")
		reporters = flag.Int("reporters", 8, "concurrent reporter goroutines")
		reports   = flag.Int("reports", 100000, "reports per reporter")
		keys      = flag.Uint64("keys", 1<<16, "key-space size")
		seed      = flag.Int64("seed", 1, "workload seed")
		queue     = flag.Int("queue", 256, "per-shard chunk queue depth")
		chunk     = flag.Int("chunk", 32, "reports staged per chunk")
		batch     = flag.Int("batch", 16, "worker dequeue batch (chunks)")
		policy    = flag.String("policy", "block", "backpressure: block or drop")
		replicas  = flag.Int("replicas", 0, "replication factor R (0 = plain cluster, no HA)")
		schedule  = flag.String("schedule", "", "failure schedule, e.g. 'kill@0.25=1,restore@0.75=1' (needs -replicas)")
		verify    = flag.Int("verify", 20000, "max written keys to query back after an HA run (0 = skip)")
		frames    = flag.Bool("frames", false, "send every report as a wire frame, decoded by the reporter's frame edge")
		walDir    = flag.String("wal", "", "write-ahead-log root directory (needs -replicas; enables exact log-based Append resync)")
		walSync   = flag.String("wal-sync", "none", "WAL sync policy: none, interval[=d], batch")

		walDegrade  = flag.Duration("wal-degrade", 0, "fsync latency bound above which the WAL degrades to flush-acks (0 = never)")
		chaosSeed   = flag.Int64("chaos-seed", 0, "chaos plane seed (0 = derive from -seed)")
		retryBudget = flag.Int("retry-budget", dta.DefaultRetryBudget, "max rebalance attempts while resyncs back off")
	)
	flag.Parse()

	prof, err := loadgen.ProfileByName(*profile)
	if err != nil {
		log.Fatal(err)
	}
	prof.Keys = *keys

	cfg := dta.EngineConfig{QueueDepth: *queue, ChunkFrames: *chunk, Batch: *batch}
	switch *policy {
	case "block":
		cfg.Policy = dta.EngineBlock
	case "drop":
		cfg.Policy = dta.EngineDrop
	default:
		log.Fatalf("dtaload: unknown policy %q (want block or drop)", *policy)
	}

	sched, err := loadgen.ParseSchedule(*schedule)
	if err != nil {
		log.Fatal(err)
	}
	if len(sched) > 0 && *replicas < 1 {
		log.Fatal("dtaload: -schedule requires -replicas >= 1")
	}

	vals := make([]uint32, *reporters)
	for i := range vals {
		vals[i] = uint32(i + 1) // postcard values = switch IDs
	}
	opts := dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 20, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 18},
		Postcarding:  &dta.PostcardingOptions{Chunks: 1 << 16, Hops: 5, Values: vals},
		Append:       &dta.AppendOptions{Lists: 8, EntriesPerList: 1 << 16, EntrySize: 4, Batch: 16},
	}

	lcfg := loadgen.Config{
		Profile:   prof,
		Reporters: *reporters,
		Reports:   *reports,
		Seed:      *seed,
		Schedule:  sched,
	}

	path := "structured"
	if *frames {
		path = "frames"
	}
	fmt.Printf("profile=%s shards=%d reporters=%d reports/reporter=%d seed=%d policy=%s replicas=%d path=%s gomaxprocs=%d\n",
		prof.Kind, *shards, *reporters, *reports, *seed, *policy, *replicas, path, runtime.GOMAXPROCS(0))

	if *chaosSeed == 0 {
		*chaosSeed = *seed
	}
	if len(sched) > 0 {
		// The full reproduction recipe up front: the workload seed, the
		// chaos seed, and the explicit (flap-expanded) plan the run will
		// execute. Paste these back as flags to replay the run exactly.
		fmt.Printf("schedule: seed=%d chaos-seed=%d plan=%s\n", *seed, *chaosSeed, loadgen.FormatSchedule(sched))
	}

	if *walDir != "" && *replicas < 1 {
		log.Fatal("dtaload: -wal requires -replicas >= 1")
	}

	if *replicas >= 1 {
		runHA(opts, cfg, lcfg, haParams{
			shards: *shards, replicas: *replicas, verify: *verify, frames: *frames,
			walDir: *walDir, walSync: *walSync, walDegrade: *walDegrade,
			chaosSeed: *chaosSeed, retryBudget: *retryBudget,
		})
		return
	}
	runPlain(opts, cfg, lcfg, *shards, *frames)
}

// haParams bundles the HA/chaos knobs runHA needs.
type haParams struct {
	shards, replicas, verify int
	frames                   bool
	walDir, walSync          string
	walDegrade               time.Duration
	chaosSeed                int64
	retryBudget              int
}

// newReporter picks what the run drives: the engine's reporter handle
// (default), or real wire frames encoded per report and decoded by the
// handle's frame edge.
func newReporter(eng *dta.Engine, id uint32, frames bool) loadgen.Reporter {
	r := eng.Reporter(id)
	if frames {
		return &frameReporter{Sender: reporter.Sender{Rep: reporter.New(reporter.Config{SwitchID: id}), Send: r.SubmitFrame}, rep: r}
	}
	return r
}

// frameReporter sends wire frames to a dta.Reporter's SubmitFrame and
// flushes through it.
type frameReporter struct {
	reporter.Sender
	rep *dta.Reporter
}

func (f *frameReporter) Flush() error { return f.rep.Flush() }

// runPlain is the original single-owner cluster path.
func runPlain(opts dta.Options, cfg dta.EngineConfig, lcfg loadgen.Config, shards int, frames bool) {
	cluster, err := dta.NewCluster(shards, opts)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cluster.Engine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	lcfg.Drain = eng.Drain
	res, err := loadgen.Run(lcfg, func(i int) loadgen.Reporter {
		return newReporter(eng, uint32(i+1), frames)
	})
	if err != nil {
		log.Fatalf("dtaload: %v", err)
	}
	if err := eng.Close(); err != nil {
		log.Fatalf("dtaload: close: %v", err)
	}
	printRun(res, eng)
	printShards(eng, func(i int) dta.Stats { return cluster.System(i).Stats() })
	printAckLatency(cluster.Tracer())
}

// runHA drives the replicated cluster, optionally injecting the failure
// schedule, then rebalances and verifies recovery of written keys.
func runHA(opts dta.Options, cfg dta.EngineConfig, lcfg loadgen.Config, p haParams) {
	hac, err := dta.NewHACluster(p.shards, p.replicas, opts)
	if err != nil {
		log.Fatal(err)
	}
	needsChaos := loadgen.ScheduleNeedsChaos(lcfg.Schedule)
	if needsChaos {
		// Before WithWAL: segment files are fault-wrapped at open.
		if _, err := hac.EnableChaos(p.chaosSeed); err != nil {
			log.Fatal(err)
		}
	}
	if p.walDir != "" {
		pol, err := dta.ParseWALPolicy(p.walSync)
		if err != nil {
			log.Fatal(err)
		}
		pol.DegradeFsync = p.walDegrade
		if err := hac.WithWAL(p.walDir, pol); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wal: logging to %s (sync=%s degrade=%s); Append resync is log-based (exact)\n",
			p.walDir, p.walSync, p.walDegrade)
	}
	eng, err := hac.Engine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	lcfg.Drain = eng.Drain
	// Built before the run so the first eval's delta window is
	// "run start → kill", not a degenerate instant.
	he := hac.HealthEval()
	lcfg.Control = func(ev loadgen.Event) error {
		switch ev.Action {
		case loadgen.Kill:
			fmt.Printf("event: kill collector %d\n", ev.Collector)
			if err := hac.SetDown(ev.Collector); err != nil {
				return err
			}
			// The /healthz verdict must flip unhealthy the moment a
			// replica is down — assert it at the injection point.
			printHealth("kill", he.Eval())
			return nil
		case loadgen.Restore:
			// Evaluated BEFORE SetUp: the outage window's verdict, with
			// the degraded-write delta the failure cost still visible.
			printHealth("outage", he.Eval())
			fmt.Printf("event: restore collector %d\n", ev.Collector)
			return hac.SetUp(ev.Collector)
		case loadgen.Partition:
			fmt.Printf("event: partition reporter→collector %d\n", ev.Collector)
			return hac.PartitionReporter(ev.Collector)
		case loadgen.PartitionPeer:
			fmt.Printf("event: partition peers %d↔%d\n", ev.Collector, ev.Peer)
			return hac.PartitionPeers(ev.Collector, ev.Peer)
		case loadgen.SlowDisk:
			fmt.Printf("event: slowdisk collector %d fsync+=%s\n", ev.Collector, ev.FsyncLat)
			return hac.SlowDisk(ev.Collector, ev.FsyncLat)
		case loadgen.Skew:
			fmt.Printf("event: skew collector %d clock by %s\n", ev.Collector, ev.Skew)
			return hac.SetClockSkew(ev.Collector, ev.Skew)
		case loadgen.Heal:
			if ev.Collector < 0 {
				fmt.Println("event: heal cluster-wide")
			} else {
				fmt.Printf("event: heal collector %d\n", ev.Collector)
			}
			return hac.HealChaos(ev.Collector)
		}
		return fmt.Errorf("dtaload: unknown action %v", ev.Action)
	}
	res, err := loadgen.Run(lcfg, func(i int) loadgen.Reporter {
		return newReporter(eng, uint32(i+1), p.frames)
	})
	if err != nil {
		log.Fatalf("dtaload: %v", err)
	}
	printRun(res, eng)

	// First verification pass BEFORE Rebalance: failover queries hit
	// whatever divergence the failure schedule left behind, and
	// read-repair heals it query by query — the ReadRepairs delta is
	// the divergence the pass observed and fixed on the spot.
	if p.verify > 0 {
		verifyHA(hac, lcfg, p.verify, "verify (pre-rebalance, read-repairing)")
		fmt.Printf("read-repairs so far: %d\n", hac.HAStats().ReadRepairs)
	}

	// The pre-rebalance verdict closes the recovery window (restore →
	// here): the restored member is back up but still stale, and any
	// load-tail degradation lands in this delta, not the next one.
	if len(lcfg.Schedule) > 0 {
		printHealth("pre-rebalance", he.Eval())
	}

	if hac.ChaosActive() {
		// Faults the schedule never healed are still in: a first
		// rebalance attempt is expected to defer the blocked targets
		// (observable as resync-retries), then the faults are cleared
		// and the retried rebalance below must converge.
		if err := hac.Rebalance(); err != nil {
			fmt.Printf("rebalance (chaos active): %v\n", err)
		}
		fmt.Println("healing remaining chaos faults")
		if err := hac.HealChaos(-1); err != nil {
			log.Fatalf("dtaload: heal: %v", err)
		}
	}
	if err := hac.RebalanceUntilHealed(p.retryBudget); err != nil {
		log.Fatalf("dtaload: rebalance: %v", err)
	}
	// After the rebalance healed the cluster the verdict must flip back:
	// replicas up, the window's delta clean of degradation. The flight
	// recorder must show the failure arc as one causal chain.
	if len(lcfg.Schedule) > 0 {
		printHealth("post-rebalance", he.Eval())
		printFailoverChains(hac, p.walDir != "")
	}

	hst := hac.HAStats()
	fmt.Printf("ha: degraded-writes=%d lost-writes=%d replica-skips=%d degraded-queries=%d failover-queries=%d\n",
		hst.DegradedWrites, hst.LostWrites, hst.ReplicaSkips, hst.DegradedQueries, hst.FailoverQueries)
	fmt.Printf("ha: read-repairs=%d resyncs=%d resync-slots=%d resync-slots-skipped=%d append-entries-resynced=%d resync-retries=%d\n\n",
		hst.ReadRepairs, hst.Resyncs, hst.ResyncSlots, hst.ResyncSlotsSkipped, hst.AppendEntriesResynced, hst.ResyncRetries)

	printShards(eng, func(i int) dta.Stats { return hac.System(i).Stats() })
	printAckLatency(hac.Tracer())

	var verdictErr error
	if p.verify > 0 {
		fmt.Printf("\nverify-stamp: seed=%d chaos-seed=%d schedule=%q\n",
			lcfg.Seed, p.chaosSeed, loadgen.FormatSchedule(lcfg.Schedule))
		vr := verifyHA(hac, lcfg, p.verify, "verify (post-rebalance)")
		apct, hasAppends := verifyAppendLists(hac, lcfg)
		if len(lcfg.Schedule) > 0 {
			verdictErr = chaosVerdict(hac, lcfg, p, vr, apct, hasAppends)
		}
	}
	if err := eng.Close(); err != nil {
		log.Fatalf("dtaload: close: %v", err)
	}
	if verdictErr != nil {
		os.Exit(1)
	}
}

// verifyResult is one verifyHA pass's tally.
type verifyResult struct {
	keys, found, correct, unreachable int
}

// chaosVerdict prints the run's chaos evidence and a grep-able
// PASS/FAIL verdict line asserting the exactness contract: after the
// final rebalance every surviving key reads back its exact value, no
// owner set is unreachable, Append lists recovered fully, and slow-disk
// runs actually exercised the WAL's degraded-ack machinery.
func chaosVerdict(hac *dta.HACluster, lcfg loadgen.Config, p haParams, vr verifyResult, appendPct float64, hasAppends bool) error {
	var degradeEnter, degradeExit int
	if j := hac.Journal(); j != nil {
		events, _, _ := j.Since(0, nil)
		for i := range events {
			switch events[i].Type {
			case journal.EvWALDegradeEnter:
				degradeEnter++
			case journal.EvWALDegradeExit:
				degradeExit++
			}
		}
	}
	var degradedAcks uint64
	if p.walDir != "" {
		for i := 0; i < hac.Size(); i++ {
			if st, ok := hac.System(i).WALStats(); ok {
				degradedAcks += st.DegradedAcks
			}
		}
	}
	fmt.Printf("chaos: resync-retries=%d degrade-enter=%d degrade-exit=%d degraded-acks=%d\n",
		hac.HAStats().ResyncRetries, degradeEnter, degradeExit, degradedAcks)

	// The Key-Write store is probabilistic by design: hash-slot
	// collisions evict a sliver of keys even in a fault-free run (the
	// paper's best-effort contract), so convergence is asserted as a
	// high found floor with every found key byte-exact — not found ==
	// keys. Appends are log-replayed and must recover exactly.
	const minFoundPct = 99.9
	var fails []string
	if pct := 100 * float64(vr.found) / float64(max(vr.keys, 1)); pct < minFoundPct {
		fails = append(fails, fmt.Sprintf("found %d/%d keys (%.2f%% < %.1f%%)", vr.found, vr.keys, pct, minFoundPct))
	}
	if vr.correct != vr.found {
		fails = append(fails, fmt.Sprintf("correct %d/%d found keys", vr.correct, vr.found))
	}
	if vr.unreachable != 0 {
		fails = append(fails, fmt.Sprintf("%d unreachable owner sets", vr.unreachable))
	}
	if hasAppends && appendPct < 100 {
		fails = append(fails, fmt.Sprintf("append recovery %.2f%%", appendPct))
	}
	if hadSlowDisk(lcfg.Schedule) && p.walDegrade > 0 && p.walDir != "" {
		if degradeEnter == 0 || degradeExit == 0 {
			fails = append(fails, fmt.Sprintf("degraded-ack never cycled (enter=%d exit=%d)", degradeEnter, degradeExit))
		}
		if degradedAcks == 0 {
			fails = append(fails, "no degraded acks recorded")
		}
	}
	if len(fails) > 0 {
		fmt.Printf("chaos-verdict: FAIL (%s)\n", strings.Join(fails, "; "))
		return errors.New("chaos verdict failed")
	}
	fmt.Println("chaos-verdict: PASS")
	return nil
}

// hadSlowDisk reports whether the schedule injected a disk fault.
func hadSlowDisk(evs []loadgen.Event) bool {
	for _, ev := range evs {
		if ev.Action == loadgen.SlowDisk && ev.FsyncLat > 0 {
			return true
		}
	}
	return false
}

// verifyHA queries back the keys the deterministic workload wrote and
// reports how many survived the failure scenario.
func verifyHA(hac *dta.HACluster, lcfg loadgen.Config, limit int, stage string) verifyResult {
	keys := loadgen.WrittenKeys(lcfg)
	if len(keys) > limit {
		keys = keys[:limit]
	}
	redundancy := lcfg.Defaulted().Profile.Redundancy
	var found, correct, unreachable int
	for _, k := range keys {
		data, ok, err := hac.LookupValue(dta.KeyFromUint64(k), redundancy)
		switch {
		case errors.Is(err, dta.ErrAllReplicasDown):
			// A permanently dead owner set is a cost to report, not a
			// harness failure: the key counts as lost.
			unreachable++
			continue
		case err != nil:
			log.Fatalf("dtaload: verify key %d: %v", k, err)
		case !ok:
			continue
		}
		found++
		want := loadgen.KeyWriteValue(k)
		if bytes.Equal(data, want[:]) {
			correct++
		}
	}
	pct := func(n int) float64 {
		if len(keys) == 0 {
			return 0
		}
		return 100 * float64(n) / float64(len(keys))
	}
	fmt.Printf("\n%s: keys=%d found=%d (%.2f%%) correct=%d (%.2f%%) unreachable=%d\n",
		stage, len(keys), found, pct(found), correct, pct(correct), unreachable)
	return verifyResult{keys: len(keys), found: found, correct: correct, unreachable: unreachable}
}

// verifyAppendLists replays the workload streams to learn what every
// Append list should hold, then reads each live owner's ring back and
// reports the worst per-owner recovery. After a kill/rejoin schedule
// plus Rebalance, the rejoined owner's rings have been resynced from
// surviving replicas, so recovery should be ~100% for every owner (with
// several concurrent reporters the replicas' arrival orders can differ
// around the failure boundary, costing a sliver of the suffix — the
// same best-effort hazard failover polling has).
func verifyAppendLists(hac *dta.HACluster, lcfg loadgen.Config) (float64, bool) {
	expected := loadgen.AppendedKeys(lcfg)
	if len(expected) == 0 {
		return 100, false // profile never appends
	}
	totalWant, totalGot := 0, 0
	worst := 100.0
	for list, keys := range expected {
		want := make(map[[4]byte]int, len(keys))
		for _, k := range keys {
			want[loadgen.KeyWriteValue(k)]++
		}
		owners := hac.OwnersOfList(list)
		for _, o := range owners {
			sys := hac.System(o)
			store := sys.Host().AppendStore()
			if store == nil {
				continue
			}
			cfg := store.Config()
			written := sys.Translator().AppendBatcher().Written(int(list))
			window := written
			if window > uint64(cfg.EntriesPerList) {
				window = uint64(cfg.EntriesPerList) // the ring keeps one lap
			}
			remaining := make(map[[4]byte]int, len(want))
			for v, n := range want {
				remaining[v] = n
			}
			got := 0
			start := written - window
			for i := uint64(0); i < window; i++ {
				idx := int((start + i) % uint64(cfg.EntriesPerList))
				var e [4]byte
				copy(e[:], store.Entry(int(list), idx))
				if remaining[e] > 0 {
					remaining[e]--
					got++
				}
			}
			pct := 100.0
			if len(keys) > 0 {
				pct = 100 * float64(got) / float64(len(keys))
			}
			if pct < worst {
				worst = pct
			}
			totalWant += len(keys)
			totalGot += got
		}
	}
	pct := 100.0
	if totalWant > 0 {
		pct = 100 * float64(totalGot) / float64(totalWant)
	}
	fmt.Printf("append-verify: lists=%d expected-entries/owner-pair=%d recovered=%d (%.2f%%) worst-owner=%.2f%%\n",
		len(expected), totalWant, totalGot, pct, worst)
	return worst, true
}

func printRun(res loadgen.Result, eng *dta.Engine) {
	fmt.Printf("submitted=%d elapsed=%s throughput=%.0f reports/s events-fired=%d\n",
		res.Submitted, res.Elapsed.Round(time.Microsecond), res.Throughput(), res.EventsFired)
	est := eng.Stats()
	attempts := est.Enqueued + est.Dropped
	dropPct := 0.0
	if attempts > 0 {
		dropPct = 100 * float64(est.Dropped) / float64(attempts)
	}
	fmt.Printf("ingested=%d dropped=%d (%.1f%%)\n\n", est.Processed, est.Dropped, dropPct)
}

// printHealth renders one /healthz evaluation as a grep-able line, with
// every failing rule's reason inline.
func printHealth(stage string, st dta.HealthStatus) {
	fmt.Printf("health@%s: healthy=%v", stage, st.Healthy)
	for _, r := range st.Rules {
		if !r.Healthy {
			fmt.Printf(" [%s: %s]", r.Name, r.Reason)
		}
	}
	fmt.Println()
}

// printFailoverChains scans the flight recorder for failure arcs and
// reports whether each kill's events — SetDown, the Resync that healed
// it, and (with a WAL attached) the post-resync Checkpoint — share one
// causality ID. This is the end-to-end assertion that the journal links
// cause to repair, not just that events were emitted.
func printFailoverChains(hac *dta.HACluster, walAttached bool) {
	j := hac.Journal()
	if j == nil {
		return
	}
	events, _, _ := j.Since(0, nil)
	type arc struct {
		collector int16
		setDown   bool
		resync    bool
		ckpt      bool
	}
	arcs := map[uint64]*arc{}
	for i := range events {
		e := &events[i]
		if e.Cause == 0 {
			continue
		}
		a := arcs[e.Cause]
		if a == nil {
			a = &arc{collector: -1}
			arcs[e.Cause] = a
		}
		switch e.Type {
		case journal.EvSetDown:
			a.setDown = true
			a.collector = e.Collector
		case journal.EvResyncEnd:
			a.resync = true
		case journal.EvCheckpoint:
			a.ckpt = true
		}
	}
	linked := 0
	for cause, a := range arcs {
		if !a.setDown || !a.resync {
			continue
		}
		if walAttached && !a.ckpt {
			fmt.Printf("causal-chain: INCOMPLETE — SetDown→Resync linked but no Checkpoint (cause=%d, collector=c%d)\n",
				cause, a.collector)
			continue
		}
		steps := "SetDown→Resync"
		if a.ckpt {
			steps = "SetDown→Resync→Checkpoint"
		}
		fmt.Printf("causal-chain: %s linked (cause=%d, collector=c%d)\n", steps, cause, a.collector)
		linked++
	}
	if linked == 0 {
		fmt.Println("causal-chain: INCOMPLETE — no cause links SetDown to its Resync")
	}
}

// printAckLatency reads every published data-plane trace out of the
// deployment's tracer and prints one grep-able submit→ack verdict line:
//
//	ack-latency: p50=412µs p99=2.1ms max=8.7ms dominant=wal_write→fsync (37 traces)
//
// The dominant segment is the inter-stage gap that contributed the most
// total time across all sampled traces — the stage to blame when the
// tail is slow (trace.Record.Segments walks the stamps in time order).
// Silent when telemetry is off or nothing was sampled.
func printAckLatency(trc *dta.TracePipeline) {
	recs, _, _ := trc.Since(0, nil)
	if len(recs) == 0 {
		return
	}
	totals := make([]float64, 0, len(recs))
	segTotal := map[string]float64{}
	for i := range recs {
		totals = append(totals, float64(recs[i].Total()))
		for _, s := range recs[i].Segments() {
			if s.To != s.From {
				segTotal[s.Name()] += float64(s.Ns)
			}
		}
	}
	sort.Float64s(totals)
	q := func(p float64) time.Duration {
		return time.Duration(totals[int(p*float64(len(totals)-1))])
	}
	dominant, best := "none", 0.0
	for name, ns := range segTotal {
		if ns > best {
			best, dominant = ns, name
		}
	}
	fmt.Printf("ack-latency: p50=%s p99=%s max=%s dominant=%s (%d traces)\n",
		q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond),
		q(1.0).Round(time.Microsecond), dominant, len(recs))
}

func printShards(eng *dta.Engine, sysStats func(i int) dta.Stats) {
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "shard\tenqueued\tprocessed\tdropped\tbatches\tflushes\treports\trdma-writes\trdma-atomics\trate-dropped")
	for i, st := range eng.ShardStats() {
		ss := sysStats(i)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			i, st.Enqueued, st.Processed, st.Dropped, st.Batches, st.Flushes,
			ss.Reports, ss.RDMAWrites, ss.RDMAAtomics, ss.RateDropped)
	}
	w.Flush()
}
