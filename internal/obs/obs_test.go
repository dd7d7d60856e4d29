package obs

import (
	"math/bits"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope(L("collector", "0"))
	c := sc.Counter("dta_test_total", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := sc.Gauge("dta_test_level", "test gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("SetMax = %d, want 9", got)
	}
}

func TestNilScopeSafe(t *testing.T) {
	var sc *Scope
	c := sc.Counter("x_total", "")
	c.Inc()
	if c.Load() != 1 {
		t.Fatal("nil-scope counter must still count")
	}
	s := sc.ShardedCounter("y_total", "")
	s.Add(3)
	if s.Load() != 3 {
		t.Fatal("nil-scope sharded counter must still count")
	}
	g := sc.Gauge("z", "")
	g.Set(1)
	sc.CounterFunc("f_total", "", func() uint64 { return 0 })
	sc.GaugeFunc("g", "", func() float64 { return 0 })
	if h := sc.Histogram("h_ns", ""); h != nil {
		t.Fatal("nil-scope histogram must be nil (spans skip the clock)")
	}
	var nilHist *Histogram
	nilHist.Observe(5) // must not panic
	sp := Start(nilHist)
	sp.End()
	if sub := sc.With(L("a", "b")); sub != nil {
		t.Fatal("nil scope With must stay nil")
	}
	var nilReg *Registry
	if nilReg.Scope() != nil {
		t.Fatal("nil registry Scope must be nil")
	}
}

func TestShardedCounterConcurrent(t *testing.T) {
	var c ShardedCounter
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*per {
		t.Fatalf("sharded counter = %d, want %d", got, goroutines*per)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1023, 1024, 1 << 39} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := uint64(0 + 1 + 2 + 3 + 4 + 1023 + 1024 + 1<<39)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
	// v lands in bucket bits.Len64(v).
	checks := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1, HistBuckets - 1: 1}
	for i, want := range checks {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want)
		}
	}
	// Overflow clamps into the last bucket.
	h.Observe(1 << 62)
	if got := h.buckets[HistBuckets-1].Load(); got != 2 {
		t.Fatalf("overflow bucket = %d, want 2", got)
	}
}

func TestBucketBoundGeometry(t *testing.T) {
	for i := 0; i < HistBuckets; i++ {
		b := BucketBound(i)
		// Everything observed into bucket i must be <= bound(i) and >
		// bound(i-1).
		if i > 0 {
			lo := BucketBound(i-1) + 1
			if bits.Len64(lo) != i {
				t.Fatalf("bucket %d lower edge %d has bit length %d", i, lo, bits.Len64(lo))
			}
		}
		if i < 63 && bits.Len64(b) != i {
			t.Fatalf("bucket %d bound %d has bit length %d", i, b, bits.Len64(b))
		}
	}
}

func TestRegistryReplaceOnDuplicate(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope()
	c1 := sc.Counter("dup_total", "")
	c1.Add(5)
	c2 := sc.Counter("dup_total", "")
	c2.Add(7)
	snap := r.Snapshot()
	if n := len(snap.Values); n != 1 {
		t.Fatalf("duplicate registration kept %d series, want 1", n)
	}
	if v := snap.Find("dup_total"); v == nil || v.Value != 7 {
		t.Fatalf("latest registration must win, got %+v", snap.Find("dup_total"))
	}
	// Same name under different labels is two series.
	sc2 := r.Scope(L("shard", "1"))
	sc2.Counter("dup_total", "")
	if n := len(r.Snapshot().Values); n != 2 {
		t.Fatalf("distinct label sets collapsed: %d series, want 2", n)
	}
}

func TestSnapshotDeltaRate(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope()
	c := sc.Counter("d_total", "")
	g := sc.Gauge("d_level", "")
	h := sc.Histogram("d_ns", "")
	c.Add(10)
	g.Set(5)
	h.Observe(100)
	prev := r.Snapshot()
	c.Add(30)
	g.Set(2)
	h.Observe(100)
	h.Observe(200)
	cur := r.Snapshot()

	d := cur.Delta(prev)
	if v := d.Find("d_total"); v.Value != 30 {
		t.Fatalf("counter delta = %v, want 30", v.Value)
	}
	if v := d.Find("d_level"); v.Value != 2 {
		t.Fatalf("gauge delta must keep current level, got %v", v.Value)
	}
	if v := d.Find("d_ns"); v.Count != 2 || v.Sum != 300 {
		t.Fatalf("histogram delta = count %d sum %d, want 2/300", v.Count, v.Sum)
	}
	// Delta against nil passes through.
	if cur.Delta(nil) != cur {
		t.Fatal("delta vs nil must return the snapshot unchanged")
	}
}

func TestQuantile(t *testing.T) {
	v := Value{Kind: KindHistogram, Buckets: make([]uint64, HistBuckets)}
	// 100 observations in bucket 10 (values 512..1023).
	v.Buckets[10] = 100
	v.Count = 100
	q := v.Quantile(0.5)
	if q < 512 || q > 1023 {
		t.Fatalf("p50 = %v, want within [512,1023]", q)
	}
	if (&Value{Kind: KindHistogram}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestConcurrentSnapshotDuringWrites(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope()
	c := sc.Counter("cc_total", "")
	h := sc.Histogram("cc_ns", "")
	var sh ShardedCounter
	sc.CounterFunc("cc_view_total", "", func() uint64 { return sh.Load() })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					sh.Inc()
					h.Observe(42)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if snap.Find("cc_total") == nil {
			t.Error("series vanished mid-flight")
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope(L("shard", "0"))
	c := sc.Counter("alloc_total", "")
	var shc ShardedCounter
	g := sc.Gauge("alloc_level", "")
	h := sc.Histogram("alloc_ns", "")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		shc.Add(2)
		g.SetMax(3)
		h.Observe(17)
		sp := Start(h)
		sp.End()
	}); n != 0 {
		t.Fatalf("hot-path primitives allocate %v/op, want 0", n)
	}
}
