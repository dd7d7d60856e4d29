package dta_test

import (
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dta"
)

// TestObsMetricsPopulated checks the public telemetry surface end to
// end: ingest through a cluster engine, then read the same traffic back
// through Metrics() — the registry series and the Stats snapshots are
// views over the same cells, so they must agree exactly.
func TestObsMetricsPopulated(t *testing.T) {
	cl, err := dta.NewCluster(2, dta.Options{
		KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 12, DataSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cl.Engine(dta.EngineConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Reporter(1)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	reg := cl.Metrics()
	if reg == nil {
		t.Fatal("Metrics() = nil with telemetry enabled")
	}
	snap := reg.Snapshot()

	// Engine processed counts, summed over shards, must equal n.
	var processed float64
	for shard := 0; shard < 2; shard++ {
		v := snap.Find("dta_engine_processed_total", dta.ObsLabel{Key: "shard", Value: string(rune('0' + shard))})
		if v == nil {
			t.Fatalf("no dta_engine_processed_total series for shard %d", shard)
		}
		processed += v.Value
	}
	if processed != n {
		t.Errorf("dta_engine_processed_total sums to %.0f, want %d", processed, n)
	}

	// Per-collector translator series must sum to the aggregate Stats.
	var reports float64
	for collector := 0; collector < 2; collector++ {
		v := snap.Find("dta_translator_reports_total",
			dta.ObsLabel{Key: "collector", Value: string(rune('0' + collector))},
			dta.ObsLabel{Key: "primitive", Value: "key_write"})
		if v == nil {
			t.Fatalf("no key_write reports series for collector %d", collector)
		}
		reports += v.Value
	}
	if st := cl.Stats(); reports != float64(st.Reports) {
		t.Errorf("registry reports %.0f != Stats().Reports %d", reports, st.Reports)
	}

	// The exposition must render without error and carry the series.
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
}

// TestObsWALCommitMetrics: the group commit is legible from the registry.
// After barriers over an every-batch WAL, dta_wal_commit_records has one
// observation per fsync and sums to the records made durable (how many
// each fsync covered), dta_wal_commit_wait_ns saw the Drains that had to
// wait, dta_wal_commits_coalesced_total counts the SyncWALs an earlier
// fsync had already served, the sync series equals WALStats().Syncs, and
// dta_wal_publish_records has one observation per publication summing to
// the appends — far fewer publications than records on the engine path.
func TestObsWALCommitMetrics(t *testing.T) {
	sys, err := dta.New(dta.Options{
		KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 12, DataSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(t.TempDir(), dta.WALPolicy{Mode: dta.WALSyncBatch}); err != nil {
		t.Fatal(err)
	}
	eng, err := sys.Engine(dta.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Reporter(1)
	const epochs, perEpoch = 20, 320
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			if err := rep.KeyWrite(dta.KeyFromUint64(uint64(e*perEpoch+i)), []byte{1, 2, 3, 4}, 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := sys.SyncWAL(); err != nil { // covered by the Drain's commit
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st, _ := sys.WALStats()
	snap := sys.Metrics().Snapshot()
	find := func(name string) *dta.ObsValue {
		t.Helper()
		v := snap.Find(name)
		if v == nil {
			t.Fatalf("no %s series", name)
		}
		return v
	}
	if v := find("dta_wal_syncs_total"); v.Value != float64(st.Syncs) {
		t.Errorf("dta_wal_syncs_total = %.0f, WALStats().Syncs = %d", v.Value, st.Syncs)
	}
	if v := find("dta_wal_commit_records"); v.Count != st.Syncs || v.Sum != st.DurableLSN {
		t.Errorf("dta_wal_commit_records: %d observations summing to %d, want %d fsyncs covering %d records",
			v.Count, v.Sum, st.Syncs, st.DurableLSN)
	}
	if st.DurableLSN != epochs*perEpoch {
		t.Errorf("DurableLSN = %d, want %d", st.DurableLSN, epochs*perEpoch)
	}
	if st.Syncs >= st.Appends/16 {
		t.Errorf("%d fsyncs for %d appends: the commit does not group", st.Syncs, st.Appends)
	}
	if v := find("dta_wal_appends_total"); v.Value != float64(st.Appends) || st.Appends != epochs*perEpoch {
		t.Errorf("dta_wal_appends_total = %.0f, WALStats().Appends = %d, want %d", v.Value, st.Appends, epochs*perEpoch)
	}
	if v, p := find("dta_wal_publish_records"), find("dta_wal_publishes_total"); v.Sum != st.Appends || v.Count != st.Publishes || p.Value != float64(st.Publishes) {
		t.Errorf("dta_wal_publish_records: %d observations summing to %d, dta_wal_publishes_total %.0f; want %d publications of %d appends",
			v.Count, v.Sum, p.Value, st.Publishes, st.Appends)
	}
	if st.Publishes > st.Appends/8 {
		t.Errorf("%d publications for %d appends: the engine path does not publish per chunk", st.Publishes, st.Appends)
	}
	if v := find("dta_wal_commit_wait_ns"); v.Count == 0 || v.Count > 2*epochs {
		t.Errorf("dta_wal_commit_wait_ns has %d observations for %d drains", v.Count, epochs)
	}
	if v := find("dta_wal_commits_coalesced_total"); v.Value != epochs {
		t.Errorf("dta_wal_commits_coalesced_total = %.0f, want the %d SyncWALs a Drain had already covered", v.Value, epochs)
	}
	if err := sys.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestObsDisabled checks the telemetry-off mode: no registry anywhere,
// ingest and Stats still fully functional.
func TestObsDisabled(t *testing.T) {
	sys, err := dta.New(dta.Options{
		KeyWrite:         &dta.KeyWriteOptions{Slots: 1 << 12, DataSize: 4},
		DisableTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Metrics() != nil {
		t.Fatal("Metrics() != nil with DisableTelemetry")
	}
	rep := sys.Reporter(1)
	for i := 0; i < 100; i++ {
		if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 2); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.Stats(); st.Reports != 100 {
		t.Fatalf("Stats().Reports = %d with telemetry off, want 100", st.Reports)
	}
}

// TestObsStructuredIngestZeroAllocs pins the tentpole's zero-overhead
// claim, allocation half: the structured sync ingest path with metrics
// ENABLED (counters incremented, spans sampled into histograms) stays at
// zero allocations per report.
func TestObsStructuredIngestZeroAllocs(t *testing.T) {
	sys, err := dta.New(dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 16, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Metrics() == nil {
		t.Fatal("telemetry should be on by default")
	}
	if sys.Tracer() == nil {
		// The allocation pin below exercises the trace sampler's
		// sampled-out branch on every report — it only means something
		// with the tracer actually live.
		t.Fatal("trace pipeline should be on by default")
	}
	rep := sys.Reporter(1)
	data := []byte{1, 2, 3, 4}
	for i := 0; i < 1000; i++ { // warm
		if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := uint64(0)
	allocs := testing.AllocsPerRun(5000, func() {
		if err := rep.KeyWrite(dta.KeyFromUint64(i), data, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Increment(dta.KeyFromUint64(i), 1, 2); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("instrumented structured ingest allocated %.2f/op, want 0", allocs)
	}
}

// TestObsSampledOutPathInlines is the deterministic half of the
// telemetry latency claim: what a sampled-out (or telemetry-off) report
// pays is a predicted branch at the call site, which holds only while
// the compiler can inline these entry points. A wall clock cannot tell a
// lost inline from a busy neighbour; the compiler's own report can.
func TestObsSampledOutPathInlines(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", "./internal/obs", "./internal/obs/trace").CombinedOutput()
	if err != nil {
		t.Skipf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"Start",           // obs.Start: nil histogram → no clock read
		"(*Tracer).Begin", // nil tracer / sampled out → zero Handle
		"(*Tracer).Candidate",
		"Handle.Stamp", // invalid handle → return
		"Handle.Finish",
	} {
		if !strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("%s is no longer inlinable: every report now pays a call for it", fn)
		}
	}
}

// TestObsOverheadUnder3Pct pins the zero-overhead claim, latency half:
// the instrumented structured sync path stays within 3% of the
// DisableTelemetry baseline. Both variants pay the counter increments
// (the counters back Stats either way); the delta under test is the
// histogram observes plus the 1-in-64 sampled clock reads.
//
// Measurement is interleaved A/B rounds with the MINIMUM per variant:
// the minimum over many rounds estimates the noise-free cost of each
// path, which is what the <3% claim is about — medians or means would
// fold scheduler noise on timeshared CI hardware into the comparison.
//
// It is a wall-clock A/B, so it is opt-in (DTA_WALLCLOCK_GATES=1; CI's
// overhead step sets it on a quiet runner): inside `go test ./...` some
// forty other package binaries share the cores and the gate measured
// them, not the code. Tier-1 keeps the deterministic halves of the
// claim — TestObsStructuredIngestZeroAllocs and
// TestObsSampledOutPathInlines.
func TestObsOverheadUnder3Pct(t *testing.T) {
	if os.Getenv("DTA_WALLCLOCK_GATES") == "" {
		t.Log("wall-clock gate not requested (set DTA_WALLCLOCK_GATES=1)")
		return
	}
	build := func(disable bool) (*dta.System, *dta.Reporter) {
		sys, err := dta.New(dta.Options{
			KeyWrite:         &dta.KeyWriteOptions{Slots: 1 << 16, DataSize: 4},
			DisableTelemetry: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys, sys.Reporter(1)
	}
	data := []byte{1, 2, 3, 4}

	const (
		rounds = 40
		ops    = 20000
	)
	measure := func(rep *dta.Reporter, base uint64) float64 {
		start := time.Now()
		for i := uint64(0); i < ops; i++ {
			if err := rep.KeyWrite(dta.KeyFromUint64(base+i), data, 2); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / ops
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const attempts = 3
	var overhead, minOn, minOff float64
	for a := 0; a < attempts; a++ {
		// Fresh systems per attempt: the hot structures' heap placement
		// (and therefore their cache behaviour) is a per-allocation
		// draw, so a retry with the same objects would re-measure the
		// same unlucky layout rather than a new sample.
		_, repOn := build(false)
		_, repOff := build(true)
		measure(repOn, 0) // warm both paths before timing anything
		measure(repOff, 0)
		on := make([]float64, 0, rounds)
		off := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			base := uint64(r+1) * ops
			on = append(on, measure(repOn, base))
			off = append(off, measure(repOff, base))
		}
		sort.Float64s(on)
		sort.Float64s(off)
		minOn, minOff = on[0], off[0]
		overhead = (minOn/minOff - 1) * 100
		t.Logf("attempt %d: instrumented %.1f ns/op, baseline %.1f ns/op, overhead %.2f%%", a+1, minOn, minOff, overhead)
		if overhead < 3.0 {
			return
		}
	}
	t.Errorf("telemetry overhead %.2f%% >= 3%% on every attempt (on=%.1fns off=%.1fns)", overhead, minOn, minOff)
}

// TestObsConcurrentReadersDuringIngest drives full-rate engine ingest
// while scraper goroutines continuously Snapshot and render the shared
// registry — the race detector (CI runs go test -race) proves the
// exposition path never takes a lock the hot path touches and never
// reads a cell non-atomically.
func TestObsConcurrentReadersDuringIngest(t *testing.T) {
	cl, err := dta.NewCluster(2, dta.Options{
		KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 14, DataSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cl.Engine(dta.EngineConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	reg := cl.Metrics()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				if len(snap.Values) == 0 {
					t.Error("empty snapshot during ingest")
					return
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}

	var producers sync.WaitGroup
	for g := 0; g < 4; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			rep := eng.Reporter(uint32(g + 1))
			for i := 0; i < 20000; i++ {
				if err := rep.KeyWrite(dta.KeyFromUint64(uint64(g*1_000_000+i)), []byte{1, 2, 3, 4}, 2); err != nil {
					t.Error(err)
					return
				}
			}
			if err := rep.Flush(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	producers.Wait()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
