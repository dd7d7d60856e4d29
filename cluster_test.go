package dta

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, fullOptions()); err == nil {
		t.Error("zero-size cluster accepted")
	}
}

func TestClusterShardsKeys(t *testing.T) {
	c, err := NewCluster(4, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	const keys = 200
	for i := 0; i < keys; i++ {
		var data [4]byte
		binary.BigEndian.PutUint32(data[:], uint32(i))
		if err := rep.KeyWrite(KeyFromUint64(uint64(i)), data[:], 2); err != nil {
			t.Fatal(err)
		}
	}
	// Every key is queryable through the cluster router.
	for i := 0; i < keys; i++ {
		data, ok, err := c.LookupValue(KeyFromUint64(uint64(i)), 2)
		if err != nil || !ok || binary.BigEndian.Uint32(data) != uint32(i) {
			t.Fatalf("key %d: %v %v %v", i, data, ok, err)
		}
	}
	// The keys actually spread: no collector holds everything.
	perSys := make([]uint64, c.Size())
	var total uint64
	for i := 0; i < c.Size(); i++ {
		st := c.System(i).Stats()
		perSys[i] = st.Reports
		total += st.Reports
	}
	if total != keys {
		t.Fatalf("total reports = %d", total)
	}
	for i, n := range perSys {
		if n == 0 || n == keys {
			t.Errorf("collector %d holds %d/%d keys: no sharding", i, n, keys)
		}
	}
}

func TestClusterOwnerStable(t *testing.T) {
	c, _ := NewCluster(3, fullOptions())
	for i := 0; i < 100; i++ {
		k := KeyFromUint64(uint64(i))
		if c.Owner(k) != c.Owner(k) {
			t.Fatal("owner not deterministic")
		}
		if o := c.Owner(k); o < 0 || o >= 3 {
			t.Fatalf("owner %d out of range", o)
		}
	}
}

func TestClusterQueryOnlyOwnerAnswers(t *testing.T) {
	c, _ := NewCluster(2, fullOptions())
	rep := c.Reporter(1)
	k := KeyFromUint64(42)
	rep.KeyWrite(k, []byte{7, 7, 7, 7}, 2)
	owner := c.Owner(k)
	other := 1 - owner
	if _, ok, _ := c.System(owner).LookupValue(k, 2); !ok {
		t.Error("owner cannot answer")
	}
	if _, ok, _ := c.System(other).LookupValue(k, 2); ok {
		t.Error("non-owner answered (shard leak)")
	}
}

func TestClusterPostcardsAndCounts(t *testing.T) {
	c, _ := NewCluster(2, fullOptions())
	rep := c.Reporter(1)
	k := KeyFromUint64(9)
	for hop := 0; hop < 5; hop++ {
		if err := rep.Postcard(k, hop, 5); err != nil {
			t.Fatal(err)
		}
	}
	if path, ok, _ := c.LookupPath(k, 1); !ok || len(path) != 5 {
		t.Errorf("path = %v %v", path, ok)
	}
	rep.Increment(k, 5, 2)
	rep.Increment(k, 6, 2)
	if got, _ := c.LookupCount(k, 2); got != 11 {
		t.Errorf("count = %d", got)
	}
}

func TestClusterAppendByList(t *testing.T) {
	c, _ := NewCluster(2, fullOptions())
	rep := c.Reporter(1)
	for list := uint32(0); list < 4; list++ {
		if err := rep.Append(list, []byte{byte(list), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for list := uint32(0); list < 4; list++ {
		sys := c.System(c.OwnerOfList(list))
		p, err := sys.Poller(int(list))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Poll(); !bytes.Equal(got, []byte{byte(list), 0, 0, 0}) {
			t.Errorf("list %d entry = %v", list, got)
		}
	}
	st := c.Stats()
	if st.Reports != 4 {
		t.Errorf("cluster stats reports = %d", st.Reports)
	}
}

func TestKIAggregationThroughFacade(t *testing.T) {
	opts := fullOptions()
	opts.KeyIncrement.AggregationRows = 1 << 8
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	k := KeyFromUint64(3)
	for i := 0; i < 50; i++ {
		rep.Increment(k, 1, 2)
	}
	// Before flush the aggregate is still in the translator cache.
	if got, _ := sys.LookupCount(k, 2); got != 0 {
		t.Errorf("count before flush = %d, want 0", got)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.LookupCount(k, 2); got != 50 {
		t.Errorf("count after flush = %d, want 50", got)
	}
	if st := sys.Stats(); st.RDMAAtomics != 2 {
		t.Errorf("atomics = %d, want 2", st.RDMAAtomics)
	}
}

// TestClusterOwnershipDistribution checks the CRC sharding satellite:
// ownership over a large key sample spreads close to uniformly, so no
// collector silently becomes a hot spot.
func TestClusterOwnershipDistribution(t *testing.T) {
	const size, keys = 4, 40000
	c, err := NewCluster(size, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, size)
	for i := 0; i < keys; i++ {
		owner := c.Owner(KeyFromUint64(uint64(i) * 0x9e3779b97f4a7c15))
		if owner < 0 || owner >= size {
			t.Fatalf("Owner returned %d for cluster of %d", owner, size)
		}
		counts[owner]++
	}
	mean := keys / size
	for i, n := range counts {
		if n < mean*8/10 || n > mean*12/10 {
			t.Errorf("collector %d owns %d of %d keys (mean %d): skewed beyond ±20%%", i, n, keys, mean)
		}
	}
}

// TestClusterReporterParity covers the methods a cluster's handle once
// lacked: KeyWriteImmediate raises the push event on the owning
// collector, and PostcardValue records per-hop values there.
func TestClusterReporterParity(t *testing.T) {
	c, err := NewCluster(3, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	k := KeyFromUint64(77)
	owner := c.Owner(k)

	if err := rep.KeyWriteImmediate(k, []byte{4, 3, 2, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if data, ok, err := c.LookupValue(k, 2); err != nil || !ok || !bytes.Equal(data, []byte{4, 3, 2, 1}) {
		t.Fatalf("immediate write lookup: %v %v %v", data, ok, err)
	}
	// The immediate flag raises one push event per redundant RDMA
	// write (n=2 here) — all of them on the owning collector only.
	for i := 0; i < c.Size(); i++ {
		want := 0
		if i == owner {
			want = 2
		}
		if got := len(c.System(i).Host().Events); got != want {
			t.Errorf("collector %d holds %d events, want %d", i, got, want)
		}
	}

	for hop := 0; hop < 5; hop++ {
		if err := rep.PostcardValue(k, hop, 5, uint32(10+hop)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	path, ok, err := c.LookupPath(k, 1)
	if err != nil || !ok || len(path) != 5 {
		t.Fatalf("postcard value path: %v %v %v", path, ok, err)
	}
	for hop, v := range path {
		if v != uint32(10+hop) {
			t.Errorf("hop %d value = %d, want %d", hop, v, 10+hop)
		}
	}
}

// TestClusterStatsMemInstrWeighted: the Fig. 8 metric must survive
// clustering as the report-weighted average, not vanish (the old code
// summed every counter but never set MemInstrPerReport).
func TestClusterStatsMemInstrWeighted(t *testing.T) {
	c, err := NewCluster(3, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Reporter(1)
	for i := uint64(0); i < 100; i++ {
		if err := rep.KeyWrite(KeyFromUint64(i), []byte{1, 2, 3, 4}, 2); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := -1.0, -1.0
	for i := 0; i < c.Size(); i++ {
		st := c.System(i).Stats()
		if st.Reports == 0 {
			continue
		}
		if lo < 0 || st.MemInstrPerReport < lo {
			lo = st.MemInstrPerReport
		}
		if st.MemInstrPerReport > hi {
			hi = st.MemInstrPerReport
		}
	}
	got := c.Stats().MemInstrPerReport
	if got <= 0 {
		t.Fatalf("cluster MemInstrPerReport = %v, dropped in aggregation", got)
	}
	// A weighted average lies within the per-collector extremes.
	if got < lo || got > hi {
		t.Errorf("cluster MemInstrPerReport = %v outside per-collector range [%v, %v]", got, lo, hi)
	}
}

// TestEventsSingleConsumerPump: Events must return one cached channel —
// the old per-call pump spawned competing goroutines that stole each
// other's notifications and never exited.
func TestEventsSingleConsumerPump(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	ch1 := sys.Events()
	ch2 := sys.Events()
	if ch1 != ch2 {
		t.Fatal("Events returned distinct channels: competing pumps")
	}
	rep := sys.Reporter(1)
	if err := rep.KeyWriteImmediate(KeyFromUint64(5), []byte{1, 2, 3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	ev := <-ch1
	if ev.Imm == 0 {
		t.Errorf("event imm = %d, want non-zero", ev.Imm)
	}
	select {
	case extra := <-ch2:
		t.Errorf("second event %+v appeared for a single immediate write", extra)
	default:
	}
}

func TestClusterOwnerEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Owner on zero-value Cluster did not panic with a diagnostic")
		}
	}()
	var c Cluster
	c.Owner(KeyFromUint64(1))
}
