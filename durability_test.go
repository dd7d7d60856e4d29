package dta

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"dta/internal/loadgen"
	"dta/internal/wal"
)

// ingestMixed drives 8 reports per index (a Key-Write, an Increment, a
// full 5-hop postcard set, an Append) through a synchronous reporter,
// deterministically derived from the index.
func ingestMixed(t *testing.T, rep *Reporter, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		k := KeyFromUint64(uint64(i))
		if err := rep.KeyWrite(k, keyData(uint64(i)), 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Increment(k, uint64(i%7+1), 2); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 5; h++ {
			if err := rep.PostcardValue(k, h, 5, uint32((i+h)%63+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.Append(uint32(i%4), keyData(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameStores asserts two systems hold byte-identical primitive
// stores and append head pointers.
func requireSameStores(t *testing.T, got, want *System) {
	t.Helper()
	if !bytes.Equal(got.Host().KeyWriteStore().Buffer(), want.Host().KeyWriteStore().Buffer()) {
		t.Error("key-write stores diverge")
	}
	if !bytes.Equal(got.Host().KeyIncrementStore().Buffer(), want.Host().KeyIncrementStore().Buffer()) {
		t.Error("key-increment stores diverge")
	}
	if !bytes.Equal(got.Host().PostcardingStore().Buffer(), want.Host().PostcardingStore().Buffer()) {
		t.Error("postcarding stores diverge")
	}
	if !bytes.Equal(got.Host().AppendStore().Buffer(), want.Host().AppendStore().Buffer()) {
		t.Error("append stores diverge")
	}
	gb, wb := got.Translator().AppendBatcher(), want.Translator().AppendBatcher()
	for l := 0; l < got.Host().AppendStore().Config().Lists; l++ {
		if gb.Written(l) != wb.Written(l) {
			t.Errorf("list %d written = %d, want %d", l, gb.Written(l), wb.Written(l))
		}
	}
}

// TestSystemWALRecoverRoundTrip: everything ingested before a crash
// comes back — stores, batcher heads and translator caches — by
// rebuilding from the WAL directory alone (RecoverSystem reads the
// recorded geometry; no Options needed).
func TestSystemWALRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	ingestMixed(t, rep, 0, 300)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	st, ok := sys.WALStats()
	if !ok || st.LastLSN != 2400 || st.DurableLSN != 2400 {
		t.Fatalf("WAL stats = %+v, want 2400 records durable", st)
	}
	// Crash: the writer is simply abandoned.

	rec, err := RecoverSystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered system must answer like the original. (Flush state
	// replays too: the original flushed, and the log replay re-runs the
	// same reports, so we flush the recovered system identically.)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	requireSameStores(t, rec, sys)
	val, ok, err := rec.LookupValue(KeyFromUint64(42), 2)
	if err != nil || !ok || !bytes.Equal(val, keyData(42)) {
		t.Fatalf("recovered LookupValue(42) = %x %v %v", val, ok, err)
	}
	cnt, err := rec.LookupCount(KeyFromUint64(42), 2)
	if err != nil || cnt < 42%7+1 {
		t.Fatalf("recovered LookupCount(42) = %d %v", cnt, err)
	}
	path, ok, err := rec.LookupPath(KeyFromUint64(42), 1)
	if err != nil || !ok || path[3] != (42+3)%63+1 {
		t.Fatalf("recovered LookupPath(42) = %v %v %v", path, ok, err)
	}
}

// TestSystemCheckpointBoundsReplay: a checkpoint reclaims covered
// segments and recovery loads the image plus only the tail.
func TestSystemCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Tiny segments so the checkpoint actually reclaims some.
	if err := sys.WithWAL(dir, WALPolicy{SegmentBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	// Two checkpoints: the log is reclaimed below the OLDER image, so the
	// first one alone frees nothing.
	ingestMixed(t, rep, 0, 100)
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if first, _, err := wal.Bounds(dir); err != nil || first != 1 {
		t.Fatalf("first checkpoint reclaimed log with no older image to fall back on: first LSN %d, %v", first, err)
	}
	ingestMixed(t, rep, 100, 200)
	lsn, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1600 {
		t.Fatalf("checkpoint LSN = %d, want 1600", lsn)
	}
	ingestMixed(t, rep, 200, 300)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	first, last, err := wal.Bounds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first <= 1 {
		t.Fatalf("no segments reclaimed below checkpoint: first retained LSN %d", first)
	}
	if last != 2400 {
		t.Fatalf("tail lost: last LSN %d, want 2400", last)
	}

	rec, err := RecoverSystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		val, ok, err := rec.LookupValue(KeyFromUint64(uint64(i)), 2)
		if err != nil || !ok || !bytes.Equal(val, keyData(uint64(i))) {
			t.Fatalf("recovered key %d = %x %v %v", i, val, ok, err)
		}
	}
}

// TestSystemRecoverTornTail kills the log at a byte offset past the
// last acknowledged (fsynced) record and asserts recovery restores
// exactly a prefix: every acknowledged report answers, and the restored
// state is byte-identical to a reference system fed exactly the
// surviving prefix.
func TestSystemRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	const acked = 150
	ingestMixed(t, rep, 0, acked)
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	durable := sys.wal.DurableLSN()
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	ackedBytes := segs[len(segs)-1].Bytes
	ingestMixed(t, rep, acked, acked+100)
	if err := sys.wal.Flush(); err != nil { // hand the tail to the OS, no fsync
		t.Fatal(err)
	}
	segs, err = wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1]
	// Kill mid-record: truncate a third of the way into the unsynced
	// tail, deliberately not on a record boundary.
	cut := ackedBytes + (tail.Bytes-ackedBytes)/3 + 7
	if err := os.Truncate(tail.Path, cut); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := fresh.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored < durable {
		t.Fatalf("recovered to LSN %d, %d were acknowledged", restored, durable)
	}
	if restored >= uint64(8*(acked+100)) {
		t.Fatalf("recovered %d records, tail was cut", restored)
	}
	// Exactness: a reference system fed exactly the surviving prefix
	// must match byte for byte. Each ingestMixed index emits 8 reports,
	// so replay the same sequence and stop at the restored LSN.
	ref, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	refRep := ref.Reporter(1)
	n := 0
	emit := func(f func() error) {
		if uint64(n) >= restored {
			return
		}
		n++
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; uint64(n) < restored; i++ {
		k := KeyFromUint64(uint64(i))
		emit(func() error { return refRep.KeyWrite(k, keyData(uint64(i)), 2) })
		emit(func() error { return refRep.Increment(k, uint64(i%7+1), 2) })
		for h := 0; h < 5; h++ {
			h := h
			emit(func() error { return refRep.PostcardValue(k, h, 5, uint32((i+h)%63+1)) })
		}
		emit(func() error { return refRep.Append(uint32(i%4), keyData(uint64(i))) })
	}
	// Recovery ends at an epoch boundary; put the reference at one too.
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	requireSameStores(t, fresh, ref)
}

// TestWALBatchPolicyDurableAfterDrain: under the every-batch policy an
// engine drain leaves everything durable without an explicit sync.
func TestWALBatchPolicyDurableAfterDrain(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{Mode: WALSyncBatch}); err != nil {
		t.Fatal(err)
	}
	eng, err := sys.Engine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Reporter(1)
	for i := 0; i < 500; i++ {
		if err := rep.KeyWrite(KeyFromUint64(uint64(i)), keyData(uint64(i)), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st, ok := sys.WALStats()
	if !ok || st.LastLSN != 500 {
		t.Fatalf("WAL stats = %+v, want 500 records", st)
	}
	if st.DurableLSN != st.LastLSN {
		t.Fatalf("every-batch policy left %d records undurable", st.LastLSN-st.DurableLSN)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHAClusterWALRecover round-trips a replicated cluster through its
// per-collector WAL directories.
func TestHAClusterWALRecover(t *testing.T) {
	dir := t.TempDir()
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	for i := 0; i < 200; i++ {
		if err := rep.KeyWrite(KeyFromUint64(uint64(i)), keyData(uint64(i)), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		val, ok, err := c2.LookupValue(KeyFromUint64(uint64(i)), 2)
		if err != nil || !ok || !bytes.Equal(val, keyData(uint64(i))) {
			t.Fatalf("recovered cluster key %d = %x %v %v", i, val, ok, err)
		}
	}
}

// TestHALogShippingExactAppendResync is the acceptance scenario: under
// concurrent producers with a kill/restore schedule, log-based resync
// recovers EVERY owner's Append rings multiset-exactly (100%), where
// index-aligned snapshot suffix replay loses the entries whose replica
// arrival orders skewed around the failure boundary.
func TestHALogShippingExactAppendResync(t *testing.T) {
	dir := t.TempDir()
	opts := haOptions()
	opts.Append = &AppendOptions{Lists: 8, EntriesPerList: 1 << 12, EntrySize: 4, Batch: 16}
	hac, err := NewHACluster(4, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := hac.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	eng, err := hac.Engine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := loadgen.ParseSchedule("kill@0.25=1,restore@0.7=1")
	if err != nil {
		t.Fatal(err)
	}
	lcfg := loadgen.Config{
		Profile:   loadgen.Profile{Kind: loadgen.Mixed, Keys: 1 << 12},
		Reporters: 4,
		Reports:   4000,
		Seed:      7,
		Schedule:  sched,
		Drain:     eng.Drain,
		Control: func(ev loadgen.Event) error {
			if ev.Action == loadgen.Kill {
				return hac.SetDown(ev.Collector)
			}
			return hac.SetUp(ev.Collector)
		},
	}
	if _, err := loadgen.Run(lcfg, func(i int) loadgen.Reporter {
		return eng.Reporter(uint32(i + 1))
	}); err != nil {
		t.Fatal(err)
	}
	if err := hac.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if st := hac.HAStats(); st.AppendEntriesResynced == 0 {
		t.Fatalf("log-shipping resync replayed nothing: %+v", st)
	}

	// Multiset verification, dtaload's append-verify: every owner of
	// every list must hold every expected entry.
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
			cfg := store.Config()
			written := sys.Translator().AppendBatcher().Written(int(list))
			window := written
			if window > uint64(cfg.EntriesPerList) {
				t.Fatalf("list %d owner %d wrapped its ring (%d written)", list, o, written)
			}
			remaining := make(map[[4]byte]int, len(want))
			for v, n := range want {
				remaining[v] = n
			}
			got := 0
			for i := uint64(0); i < window; i++ {
				var e [4]byte
				copy(e[:], store.Entry(int(list), int(i)))
				if remaining[e] > 0 {
					remaining[e]--
					got++
				}
			}
			if got != len(keys) {
				t.Errorf("list %d owner %d recovered %d/%d entries (%.2f%%)",
					list, o, got, len(keys), 100*float64(got)/float64(len(keys)))
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHAClusterWeightedResharding: reweighting a collector reshards
// ownership; after the mandatory Rebalance every written key must still
// answer through its (possibly new) owners, and the heavy collector
// must own a proportionally larger slice.
func TestHAClusterWeightedResharding(t *testing.T) {
	c, err := NewHACluster(4, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	const keys = 2000
	for i := 0; i < keys; i++ {
		if err := rep.KeyWrite(KeyFromUint64(uint64(i)), keyData(uint64(i)), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetCollectorWeight(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.CollectorWeight(0); got != 4 {
		t.Fatalf("CollectorWeight(0) = %v", got)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	primaries := make([]int, 4)
	correct := 0
	for i := 0; i < keys; i++ {
		val, ok, err := c.LookupValue(KeyFromUint64(uint64(i)), 2)
		if err != nil {
			t.Fatal(err)
		}
		if ok && bytes.Equal(val, keyData(uint64(i))) {
			correct++
		}
		primaries[c.Owners(KeyFromUint64(uint64(i)))[0]]++
	}
	// Cross-syncing every collector unions all peers' occupied slots, so
	// a few keys can lose their N slots to colliding foreign keys — the
	// usual Key-Write collision hazard, not a reshard defect. Requiring
	// ~99% keeps the test about the reshard+rebalance flow.
	if correct < keys*99/100 {
		t.Errorf("only %d/%d keys answer after reweight+rebalance", correct, keys)
	}
	// Weight 4 against three weight-1 peers: expected primary share 4/7.
	if frac := float64(primaries[0]) / keys; frac < 0.45 || frac > 0.68 {
		t.Errorf("weight-4 collector is primary for %.2f of keys, want ~0.57", frac)
	}
}

// TestHALogShippingSkipsReshardedStale: a collector made stale by a
// reshard (weight change) and THEN flapped must resync from snapshots,
// not logs — fresh watermarks taken at its SetDown would hide the moved
// lists' pre-mark history.
func TestHALogShippingSkipsReshardedStale(t *testing.T) {
	dir := t.TempDir()
	hac, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := hac.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := hac.Reporter(1)
	const list = uint32(1)
	entry := func(i int) []byte {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(i))
		return e[:]
	}
	for i := 0; i < 48; i++ {
		if err := rep.Append(list, entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := hac.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reshard: every live collector goes stale with voided watermarks.
	if err := hac.SetCollectorWeight(0, 3); err != nil {
		t.Fatal(err)
	}
	victim := hac.OwnersOfList(list)[0]
	// Flap the list's (new) primary before Rebalance: its SetDown must
	// NOT manufacture fresh log watermarks over the reshard staleness.
	makeStale(t, hac, victim)
	if hac.walMark[victim] != nil {
		t.Fatalf("flap after reshard recorded log watermarks %v", hac.walMark[victim])
	}
	if err := hac.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// The victim owns the list's full history (snapshot resync carried
	// the moved entries).
	got := hac.System(victim).Translator().AppendBatcher().Written(int(list))
	if got != 48 {
		t.Errorf("resharded+flapped owner %d recovered %d/48 list entries", victim, got)
	}
}

// TestHALogShippingOverlappingFailures: collector B fails while A is
// already down. A's watermark in B's mark set must be A's (frozen) log
// position — not absent — or A's whole log would be replayed into B,
// duplicating every shared entry far beyond one ring lap.
func TestHALogShippingOverlappingFailures(t *testing.T) {
	dir := t.TempDir()
	opts := haOptions()
	opts.Append = &AppendOptions{Lists: 4, EntriesPerList: 64, EntrySize: 4, Batch: 4}
	hac, err := NewHACluster(3, 3, opts) // R=3: every collector owns every list
	if err != nil {
		t.Fatal(err)
	}
	if err := hac.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := hac.Reporter(1)
	const list = uint32(2)
	entry := func(i int) []byte {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(i))
		return e[:]
	}
	appendN := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.Append(list, entry(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 40 shared entries near ring capacity (64): un-watermarked full
	// replay of a peer's log would wrap the ring and shed real entries.
	appendN(0, 40)
	if err := hac.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hac.SetDown(0); err != nil {
		t.Fatal(err)
	}
	appendN(40, 48) // collector 0 misses these
	if err := hac.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hac.SetDown(1); err != nil { // B fails while A is down
		t.Fatal(err)
	}
	if m := hac.walMark[1]; m == nil {
		t.Fatal("no watermarks recorded for collector 1")
	} else if _, ok := m[0]; !ok {
		t.Fatalf("down peer 0 missing from collector 1's watermarks: %v", m)
	}
	if err := hac.SetUp(0); err != nil {
		t.Fatal(err)
	}
	if err := hac.SetUp(1); err != nil {
		t.Fatal(err)
	}
	if err := hac.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for _, o := range []int{0, 1, 2} {
		written := hac.System(o).Translator().AppendBatcher().Written(int(list))
		if written > 64 {
			t.Errorf("collector %d ring wrapped: %d entries written (capacity 64)", o, written)
		}
		// Exact multiset: all 48 entries present.
		store := hac.System(o).Host().AppendStore()
		seen := map[uint32]int{}
		for i := uint64(0); i < written; i++ {
			seen[binary.BigEndian.Uint32(store.Entry(int(list), int(i)))]++
		}
		for i := 0; i < 48; i++ {
			if seen[uint32(i)] < 1 {
				t.Errorf("collector %d missing entry %d", o, i)
			}
		}
	}
}

// TestHALogShippingNoDuplicates pins the multiset-diff: entries the
// restored collector ingested live — before the kill (in-flight) and
// after the restore — appear in its own log and must NOT be replayed
// again from the peers. After Rebalance every owner holds every entry
// EXACTLY once.
func TestHALogShippingNoDuplicates(t *testing.T) {
	dir := t.TempDir()
	opts := haOptions()
	opts.Append = &AppendOptions{Lists: 4, EntriesPerList: 64, EntrySize: 4, Batch: 4}
	hac, err := NewHACluster(3, 3, opts) // R=3: every collector owns every list
	if err != nil {
		t.Fatal(err)
	}
	if err := hac.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := hac.Reporter(1)
	const list = uint32(1)
	entry := func(i int) []byte {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(i))
		return e[:]
	}
	appendN := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.Append(list, entry(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(0, 10)
	if err := hac.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hac.SetDown(0); err != nil {
		t.Fatal(err)
	}
	appendN(10, 20) // missed by collector 0
	if err := hac.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hac.SetUp(0); err != nil {
		t.Fatal(err)
	}
	appendN(20, 40) // received live post-restore: must not replay again
	if err := hac.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hac.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 3; o++ {
		written := hac.System(o).Translator().AppendBatcher().Written(int(list))
		if written != 40 {
			t.Errorf("collector %d holds %d entries, want exactly 40", o, written)
		}
		store := hac.System(o).Host().AppendStore()
		seen := map[uint32]int{}
		for i := uint64(0); i < written; i++ {
			seen[binary.BigEndian.Uint32(store.Entry(int(list), int(i)))]++
		}
		for i := 0; i < 40; i++ {
			if seen[uint32(i)] != 1 {
				t.Errorf("collector %d holds entry %d ×%d, want exactly once", o, i, seen[uint32(i)])
			}
		}
	}
}

// TestSystemRecoverSkipsPoisonedRecord: a logged report that fails
// primitive processing (the live run errored identically and moved on)
// must not abort recovery — it is skipped and every other acknowledged
// record restores.
func TestSystemRecoverSkipsPoisonedRecord(t *testing.T) {
	dir := t.TempDir()
	opts := fullOptions() // Append Lists: 4
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	if err := rep.Append(1, keyData(1)); err != nil {
		t.Fatal(err)
	}
	// List 9999 passes wire validation but fails appendlist range
	// checks; the live path errors and carries on.
	if err := rep.Append(9999, keyData(2)); err == nil {
		t.Fatal("out-of-range list accepted live")
	}
	if err := rep.Append(2, keyData(3)); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	last, err := fresh.Recover(dir)
	if err != nil {
		t.Fatalf("recovery poisoned by one bad record: %v", err)
	}
	if last != 3 {
		t.Fatalf("recovered to LSN %d, want 3", last)
	}
	if err := fresh.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{1, 2} {
		if got := fresh.Translator().AppendBatcher().Written(l); got != 1 {
			t.Errorf("list %d recovered %d entries, want 1", l, got)
		}
	}
}

// TestHALogShippingNewcomerFullReplay: a collector added with a WAL
// attached replays the peers' full logs, arriving with complete Append
// history for the lists it now owns.
func TestHALogShippingNewcomerFullReplay(t *testing.T) {
	dir := t.TempDir()
	opts := haOptions()
	hac, err := NewHACluster(3, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := hac.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := hac.Reporter(1)
	const list = uint32(2)
	for i := 0; i < 64; i++ {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(i))
		if err := rep.Append(list, e[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := hac.Flush(); err != nil {
		t.Fatal(err)
	}
	id, err := hac.AddCollector()
	if err != nil {
		t.Fatal(err)
	}
	if err := hac.Rebalance(); err != nil {
		t.Fatal(err)
	}
	owners := hac.OwnersOfList(list)
	isOwner := false
	for _, o := range owners {
		if o == id {
			isOwner = true
		}
	}
	if !isOwner {
		t.Skipf("newcomer %d does not own list %d (owners %v)", id, list, owners)
	}
	if got := hac.System(id).Translator().AppendBatcher().Written(int(list)); got != 64 {
		t.Errorf("newcomer written = %d, want 64", got)
	}
	p, err := hac.System(id).Poller(int(list))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got := binary.BigEndian.Uint32(p.Poll()); got != uint32(i) {
			t.Fatalf("newcomer entry %d = %d", i, got)
		}
	}
}
