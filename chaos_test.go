package dta

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dta/internal/loadgen"
	"dta/internal/obs/journal"
)

// chaosOptions is haOptions plus an Append store sized for the mixed
// loadgen profile the property test drives.
func chaosOptions() Options {
	o := haOptions()
	o.Append = &AppendOptions{Lists: 8, EntriesPerList: 1 << 12, EntrySize: 4, Batch: 16}
	return o
}

// journalCounts tallies the cluster journal by event type.
func journalCounts(c *HACluster) map[journal.Type]int {
	out := map[journal.Type]int{}
	if j := c.Journal(); j != nil {
		events, _, _ := j.Since(0, nil)
		for i := range events {
			out[events[i].Type]++
		}
	}
	return out
}

// TestChaosRequiresPlane: every fault API (except clock skew, which
// lives on the System) demands EnableChaos first, and EnableChaos must
// run before WithWAL so segment files open fault-wrapped.
func TestChaosRequiresPlane(t *testing.T) {
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PartitionReporter(1); err == nil {
		t.Error("PartitionReporter without a plane accepted")
	}
	if err := c.PartitionPeers(0, 1); err == nil {
		t.Error("PartitionPeers without a plane accepted")
	}
	if err := c.SlowDisk(1, time.Millisecond); err == nil {
		t.Error("SlowDisk without a plane accepted")
	}
	if err := c.SetClockSkew(1, time.Second); err != nil {
		t.Errorf("SetClockSkew needs no plane: %v", err)
	}
	if err := c.HealChaos(-1); err != nil {
		t.Errorf("HealChaos without a plane is a safe no-op: %v", err)
	}

	if _, err := c.EnableChaos(1); err != nil {
		t.Fatal(err)
	}
	if p, err := c.EnableChaos(2); err != nil || p != c.Chaos() || p.Seed() != 1 {
		t.Errorf("EnableChaos not idempotent: %v %v", p, err)
	}

	d, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WithWAL(t.TempDir(), WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EnableChaos(1); err == nil {
		t.Error("EnableChaos after WithWAL accepted (segments already open unwrapped)")
	}
}

// TestChaosReporterPartitionExactness: a reporter→collector cut drops
// the target out of fan-out (writes degrade, nothing is lost with R=2),
// queries keep failing over to it being skipped as stale, and after
// heal + rebalance the cut collector has converged — it answers
// directly for the keys written while it was dark.
func TestChaosReporterPartitionExactness(t *testing.T) {
	dir := t.TempDir()
	c, err := NewHACluster(4, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnableChaos(11); err != nil {
		t.Fatal(err)
	}
	if err := c.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	const keys = 400
	write := func(from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				t.Fatal(err)
			}
		}
	}

	write(0, keys/2)
	if err := c.PartitionReporter(1); err != nil {
		t.Fatal(err)
	}
	if !c.ChaosActive() {
		t.Fatal("ChaosActive false with a reporter cut in place")
	}
	write(keys/2, keys)

	// The cut cost degraded writes for collector 1's share, no losses.
	st := c.HAStats()
	if st.DegradedWrites == 0 {
		t.Fatalf("partition caused no degraded writes: %+v", st)
	}
	if st.LostWrites != 0 {
		t.Fatalf("partition lost writes despite R=2: %+v", st)
	}
	// Every key still answers through the surviving replicas.
	for i := uint64(0); i < keys; i++ {
		data, ok, err := c.LookupValue(KeyFromUint64(i), 2)
		if err != nil || !ok || !bytes.Equal(data, keyData(i)) {
			t.Fatalf("key %d during partition: %v %v %v", i, data, ok, err)
		}
	}

	if err := c.HealReporter(1); err != nil {
		t.Fatal(err)
	}
	if c.ChaosActive() {
		t.Fatal("ChaosActive true after heal")
	}
	if err := c.RebalanceUntilHealed(0); err != nil {
		t.Fatal(err)
	}

	// Convergence: collector 1 answers directly for its share of the
	// keys written while it was cut (a sliver of slot-collision loss is
	// the store's normal hazard, not partition damage).
	var owned, hit int
	for i := uint64(keys / 2); i < keys; i++ {
		k := KeyFromUint64(i)
		for _, o := range c.Owners(k) {
			if o != 1 {
				continue
			}
			owned++
			if data, ok, err := c.System(1).LookupValue(k, 2); err == nil && ok && bytes.Equal(data, keyData(i)) {
				hit++
			}
		}
	}
	if owned == 0 {
		t.Fatal("collector 1 owns none of the dark-period keys")
	}
	if hit*100 < owned*99 {
		t.Fatalf("resynced collector answers %d/%d dark-period keys", hit, owned)
	}

	ev := journalCounts(c)
	if ev[journal.EvPartition] == 0 || ev[journal.EvPartitionHeal] == 0 {
		t.Fatalf("partition arc not journaled: %v", ev)
	}
}

// TestChaosPeerPartitionRetry: a peer cut blocks the whole target
// resync (a partial replay would clear the stale mark while missing the
// cut peer's history), the deferral is observable as a retry with
// backoff, and after the link heals RebalanceUntilHealed converges.
func TestChaosPeerPartitionRetry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnableChaos(5); err != nil {
		t.Fatal(err)
	}
	if err := c.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	const keys = 200
	for i := uint64(0); i < keys; i++ {
		if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	makeStale(t, c, 1) // collector 1 needs a resync
	if err := c.PartitionPeers(1, 0); err != nil {
		t.Fatal(err)
	}

	err = c.Rebalance()
	if err == nil {
		t.Fatal("rebalance succeeded with the resync path partitioned")
	}
	if !strings.Contains(err.Error(), "deferred") {
		t.Fatalf("rebalance error does not mention deferral: %v", err)
	}
	st := c.HAStats()
	if st.ResyncRetries == 0 {
		t.Fatalf("deferral not counted as a retry: %+v", st)
	}
	if ev := journalCounts(c); ev[journal.EvResyncRetry] == 0 {
		t.Fatalf("deferral not journaled: %v", ev)
	}

	// Still blocked: retries keep accruing, with capped backoff.
	if err := c.Rebalance(); err == nil {
		t.Fatal("second rebalance succeeded while still partitioned")
	}
	if got := c.HAStats().ResyncRetries; got < 2 {
		t.Fatalf("retries = %d after two blocked rebalances", got)
	}

	if err := c.HealPeers(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RebalanceUntilHealed(4); err != nil {
		t.Fatalf("rebalance after heal: %v", err)
	}
	// Converged: the ex-stale collector answers directly.
	var hit int
	for i := uint64(0); i < keys; i++ {
		k := KeyFromUint64(i)
		for _, o := range c.Owners(k) {
			if o != 1 {
				continue
			}
			if data, ok, err := c.System(1).LookupValue(k, 2); err == nil && ok && bytes.Equal(data, keyData(i)) {
				hit++
			}
		}
	}
	if hit == 0 {
		t.Fatal("resynced collector answers nothing")
	}
}

// TestChaosSlowDiskDegradesWAL: the chaos plane's disk faults reach the
// WAL through HACluster.WithWAL's per-collector WrapFile threading —
// injected fsync latency trips degraded-ack mode on exactly the slow
// collector, and healing the disk lets a probe exit it.
func TestChaosSlowDiskDegradesWAL(t *testing.T) {
	dir := t.TempDir()
	c, err := NewHACluster(2, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnableChaos(3); err != nil {
		t.Fatal(err)
	}
	// The bound sits well above the sandbox disk's own fsync, which the
	// healthy collector and the healed probe are timed against: inside
	// `go test ./...`, forty package binaries share that disk and an fsync
	// past 1 ms is not rare.
	if err := c.WithWAL(dir, WALPolicy{DegradeFsync: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := c.SlowDisk(1, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	syncAll := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := rep.KeyWrite(KeyFromUint64(uint64(i)), keyData(uint64(i)), 2); err != nil {
				t.Fatal(err)
			}
			if err := c.SyncWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	syncAll(4) // > degradeEnterAfter over-bound fsyncs on the slow disk

	st1, ok := c.System(1).WALStats()
	if !ok || !st1.Degraded {
		t.Fatalf("slow collector not degraded: %+v (ok=%v)", st1, ok)
	}
	if st0, _ := c.System(0).WALStats(); st0.Degraded {
		t.Fatalf("healthy collector degraded: %+v", st0)
	}

	if err := c.SlowDisk(1, 0); err != nil { // heal
		t.Fatal(err)
	}
	syncAll(12) // enough Syncs for a probe to fire and exit
	if st1, _ := c.System(1).WALStats(); st1.Degraded {
		t.Fatalf("healed disk still degraded: %+v", st1)
	}
	if st1, _ := c.System(1).WALStats(); st1.DegradedAcks == 0 {
		t.Fatal("no degraded acks counted across the cycle")
	}
	ev := journalCounts(c)
	if ev[journal.EvWALDegradeEnter] == 0 || ev[journal.EvWALDegradeExit] == 0 {
		t.Fatalf("degrade cycle not journaled: %v", ev)
	}
	if ev[journal.EvSlowDisk] < 2 { // inject + heal
		t.Fatalf("slow-disk fault not journaled: %v", ev)
	}
}

// TestChaosClockSkew: skewing a collector's clock — including a
// backwards jump — must not corrupt ingest or the WAL. All writes stay
// queryable and the skew resets on heal.
func TestChaosClockSkew(t *testing.T) {
	dir := t.TempDir()
	c, err := NewHACluster(2, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnableChaos(9); err != nil {
		t.Fatal(err)
	}
	if err := c.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	const keys = 300
	write := func(from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 100)
	if err := c.SetClockSkew(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	write(100, 200)
	// Backwards: collector 1's clock rewinds below where it has already
	// stamped WAL records (the signed-delta encoding's worst case).
	if err := c.SetClockSkew(1, -time.Second); err != nil {
		t.Fatal(err)
	}
	write(200, keys)
	if got := c.System(1).ClockSkew(); got != int64(-time.Second) {
		t.Fatalf("ClockSkew = %d, want %d", got, int64(-time.Second))
	}
	if err := c.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < keys; i++ {
		data, ok, err := c.LookupValue(KeyFromUint64(i), 2)
		if err != nil || !ok || !bytes.Equal(data, keyData(i)) {
			t.Fatalf("key %d under skew: %v %v %v", i, data, ok, err)
		}
	}
	if err := c.HealChaos(1); err != nil {
		t.Fatal(err)
	}
	if got := c.System(1).ClockSkew(); got != 0 {
		t.Fatalf("heal left skew %d", got)
	}
	if ev := journalCounts(c); ev[journal.EvClockSkew] < 3 { // +2s, -1s, heal
		t.Fatalf("skew arc not journaled: %v", ev)
	}
}

// TestAutoRebalanceOnHeal: with auto-rebalance opted in, a chaos heal
// arms the cluster and the next AutoRebalance call (the driver's safe
// barrier) resyncs; a second call reports nothing to do.
func TestAutoRebalanceOnHeal(t *testing.T) {
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnableChaos(2); err != nil {
		t.Fatal(err)
	}
	c.SetAutoRebalance(true)

	if ran, err := c.AutoRebalance(0); ran || err != nil {
		t.Fatalf("unarmed AutoRebalance ran: %v %v", ran, err)
	}

	rep := c.Reporter(1)
	if err := c.PartitionReporter(1); err != nil {
		t.Fatal(err)
	}
	const keys = 100
	for i := uint64(0); i < keys; i++ {
		if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.HealReporter(1); err != nil {
		t.Fatal(err)
	}
	ran, err := c.AutoRebalance(0)
	if err != nil {
		t.Fatalf("auto-rebalance: %v", err)
	}
	if !ran {
		t.Fatal("heal did not arm auto-rebalance")
	}
	if st := c.HAStats(); st.Resyncs == 0 {
		t.Fatalf("auto-rebalance resynced nothing: %+v", st)
	}
	if ran, _ := c.AutoRebalance(0); ran {
		t.Fatal("disarmed AutoRebalance ran again")
	}
}

// TestChaosRandomProperty is the randomized chaos soak: seeded random
// fault schedules (partitions, flapping links, slow disks, skew)
// against the engine with R=2 and a WAL, asserting the exactness
// contract after heal + rebalance — every acknowledged Append is
// recovered on every owner, every readable key is byte-exact, and the
// cluster converges (a follow-up rebalance is a no-op). Runs under
// -race in CI.
func TestChaosRandomProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosProperty(t, seed)
		})
	}
}

func runChaosProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	const shards = 4
	hac, err := NewHACluster(shards, 2, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hac.EnableChaos(seed); err != nil {
		t.Fatal(err)
	}
	if err := hac.WithWAL(dir, WALPolicy{Mode: WALSyncBatch, DegradeFsync: 500 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	eng, err := hac.Engine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// A random schedule of 2–4 faults, some healed mid-run, the rest
	// left for the post-run heal.
	var sched []loadgen.Event
	victim := rng.Intn(shards)
	sched = append(sched, loadgen.Event{After: 0.2, Action: loadgen.Partition, Collector: victim})
	if rng.Intn(2) == 0 {
		sched = append(sched, loadgen.Event{After: 0.5, Action: loadgen.Heal, Collector: victim})
	}
	if rng.Intn(2) == 0 {
		a := rng.Intn(shards)
		b := (a + 1 + rng.Intn(shards-1)) % shards
		sched = append(sched, loadgen.Event{After: 0.3, Action: loadgen.PartitionPeer, Collector: a, Peer: b})
	}
	if rng.Intn(2) == 0 {
		sched = append(sched, loadgen.Event{After: 0.25, Action: loadgen.SlowDisk, Collector: rng.Intn(shards), FsyncLat: 2 * time.Millisecond})
	}
	if rng.Intn(2) == 0 {
		d := time.Duration(rng.Intn(5)-2) * time.Second
		sched = append(sched, loadgen.Event{After: 0.4, Action: loadgen.Skew, Collector: rng.Intn(shards), Skew: d})
	}
	t.Logf("schedule: %s", loadgen.FormatSchedule(sched))

	lcfg := loadgen.Config{
		Profile:   loadgen.Profile{Kind: loadgen.Mixed, Keys: 1 << 12},
		Reporters: 4,
		Reports:   2000,
		Seed:      seed,
		Schedule:  sched,
		Drain:     eng.Drain,
		Control: func(ev loadgen.Event) error {
			switch ev.Action {
			case loadgen.Partition:
				return hac.PartitionReporter(ev.Collector)
			case loadgen.PartitionPeer:
				return hac.PartitionPeers(ev.Collector, ev.Peer)
			case loadgen.SlowDisk:
				return hac.SlowDisk(ev.Collector, ev.FsyncLat)
			case loadgen.Skew:
				return hac.SetClockSkew(ev.Collector, ev.Skew)
			case loadgen.Heal:
				return hac.HealChaos(ev.Collector)
			}
			return errors.New("unexpected action")
		},
	}
	if _, err := loadgen.Run(lcfg, func(i int) loadgen.Reporter {
		return eng.Reporter(uint32(i + 1))
	}); err != nil {
		t.Fatal(err)
	}

	// Heal everything and converge, retrying through any deferrals the
	// still-cut peers caused on the first pass.
	if hac.ChaosActive() {
		_ = hac.Rebalance() // expected to defer blocked targets
	}
	if err := hac.HealChaos(-1); err != nil {
		t.Fatal(err)
	}
	if err := hac.RebalanceUntilHealed(0); err != nil {
		t.Fatalf("rebalance never converged: %v", err)
	}
	// Converged means converged: nothing left stale for another pass.
	if err := hac.Rebalance(); err != nil {
		t.Fatalf("post-convergence rebalance not clean: %v", err)
	}

	// Acknowledged-append exactness: every owner of every list holds
	// every expected entry.
	expected := loadgen.AppendedKeys(lcfg)
	if len(expected) == 0 {
		t.Fatal("mixed profile generated no appends")
	}
	for list, keys := range expected {
		want := make(map[[4]byte]int, len(keys))
		for _, k := range keys {
			want[loadgen.KeyWriteValue(k)]++
		}
		for _, o := range hac.OwnersOfList(list) {
			sys := hac.System(o)
			store := sys.Host().AppendStore()
			written := sys.Translator().AppendBatcher().Written(int(list))
			if written > uint64(store.Config().EntriesPerList) {
				t.Fatalf("list %d owner %d wrapped its ring", list, o)
			}
			remaining := make(map[[4]byte]int, len(want))
			for v, n := range want {
				remaining[v] = n
			}
			got := 0
			for i := uint64(0); i < written; i++ {
				var e [4]byte
				copy(e[:], store.Entry(int(list), int(i)))
				if remaining[e] > 0 {
					remaining[e]--
					got++
				}
			}
			if got != len(keys) {
				t.Errorf("list %d owner %d recovered %d/%d append entries", list, o, got, len(keys))
			}
		}
	}

	// Key-write convergence: every readable key is byte-exact, nothing
	// is unreachable, and coverage stays at the store's fault-free
	// collision floor.
	keys := loadgen.WrittenKeys(lcfg)
	var found int
	for _, k := range keys {
		data, ok, err := hac.LookupValue(KeyFromUint64(k), 2)
		if err != nil {
			t.Fatalf("key %d unreachable after heal: %v", k, err)
		}
		if !ok {
			continue
		}
		want := loadgen.KeyWriteValue(k)
		if !bytes.Equal(data, want[:]) {
			t.Fatalf("key %d read back %v, want %v", k, data, want[:])
		}
		found++
	}
	if found*1000 < len(keys)*995 {
		t.Fatalf("found %d/%d keys after heal", found, len(keys))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
