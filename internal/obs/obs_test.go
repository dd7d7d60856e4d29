package obs

import (
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestSampler(t *testing.T) {
	var h Histogram
	s := NewSampler(4) // 1/16
	for i := 0; i < 160; i++ {
		sp := s.Start(&h)
		sp.End()
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("sampled count = %d, want 10", got)
	}
	if s.Weight() != 16 {
		t.Fatalf("weight = %d, want 16", s.Weight())
	}
	// Sampler with nil histogram records nothing and reads no clock.
	s2 := NewSampler(0)
	sp := s2.Start(nil)
	if sp.h != nil {
		t.Fatal("nil-hist sampler span must be inert")
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

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope(L("collector", "0"))
	sc.Counter("dta_rt_total", "a counter").Add(42)
	sc.With(L("shard", "1")).Counter("dta_rt_total", "a counter").Add(8)
	sc.Gauge("dta_rt_depth", "a gauge").Set(-3)
	sc.GaugeFunc("dta_rt_frac", "fractional", func() float64 { return 0.5 })
	h := sc.Histogram("dta_rt_ns", "a histogram")
	for _, v := range []uint64{3, 100, 5000, 1 << 41} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`# TYPE dta_rt_total counter`,
		`dta_rt_total{collector="0"} 42`,
		`dta_rt_total{collector="0",shard="1"} 8`,
		`dta_rt_depth{collector="0"} -3`,
		`dta_rt_frac{collector="0"} 0.5`,
		`dta_rt_ns_bucket{collector="0",le="+Inf"} 4`,
		`dta_rt_ns_count{collector="0"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// One HELP/TYPE block per name even with multiple label sets.
	if n := strings.Count(text, "# TYPE dta_rt_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}

	snap, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.Find("dta_rt_total", L("shard", "1")); v == nil || v.Value != 8 || v.Kind != KindCounter {
		t.Fatalf("parsed counter = %+v", v)
	}
	if v := snap.Find("dta_rt_depth"); v == nil || v.Value != -3 || v.Kind != KindGauge {
		t.Fatalf("parsed gauge = %+v", v)
	}
	hv := snap.Find("dta_rt_ns")
	if hv == nil || hv.Kind != KindHistogram {
		t.Fatalf("parsed histogram = %+v", hv)
	}
	if hv.Count != 4 || hv.Sum != 3+100+5000+1<<41 {
		t.Fatalf("histogram count/sum = %d/%d", hv.Count, hv.Sum)
	}
	orig := r.Snapshot().Find("dta_rt_ns")
	for i := range orig.Buckets {
		if orig.Buckets[i] != hv.Buckets[i] {
			t.Fatalf("bucket %d: parsed %d, original %d", i, hv.Buckets[i], orig.Buckets[i])
		}
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
	rate := d.Rate(2 * time.Second)
	if v := rate.Find("d_total"); v.Value != 15 {
		t.Fatalf("rate = %v, want 15", v.Value)
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
	smp := NewSampler(6)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		shc.Add(2)
		g.SetMax(3)
		h.Observe(17)
		sp := smp.Start(h)
		sp.End()
	}); n != 0 {
		t.Fatalf("hot-path primitives allocate %v/op, want 0", n)
	}
}

func TestExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope(L("collector", "0"))
	h := sc.Histogram("dta_ex_ns", "histogram with exemplars")
	h.Observe(100)         // bucket 7: no exemplar
	h.ObserveEx(5000, 7)   // bucket 13
	h.ObserveEx(5100, 9)   // bucket 13 again: last trace wins
	h.ObserveEx(1<<20, 11) // bucket 21
	h.ObserveEx(200, 0)    // zero trace ID: counted, no exemplar

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`# {trace_id="9"} 5100`,
		`# {trace_id="11"} 1048576`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing exemplar %q in:\n%s", want, text)
		}
	}

	snap, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exemplar-bearing exposition failed to parse: %v", err)
	}
	v := snap.Find("dta_ex_ns")
	if v == nil || v.Kind != KindHistogram {
		t.Fatalf("parsed histogram = %+v", v)
	}
	// The exemplar suffix must not perturb the sample itself.
	if v.Count != 5 || v.Sum != 100+5000+5100+1<<20+200 {
		t.Fatalf("histogram count/sum = %d/%d", v.Count, v.Sum)
	}
	orig := r.Snapshot().Find("dta_ex_ns")
	for i := range orig.Buckets {
		if orig.Buckets[i] != v.Buckets[i] {
			t.Fatalf("bucket %d: parsed %d, original %d", i, v.Buckets[i], orig.Buckets[i])
		}
	}
	// Exemplars round-trip with bucket attribution intact.
	if ex := v.ExemplarFor(13); ex == nil || ex.TraceID != 9 || ex.Value != 5100 {
		t.Fatalf("bucket 13 exemplar = %+v, want trace 9 value 5100", ex)
	}
	if ex := v.ExemplarFor(21); ex == nil || ex.TraceID != 11 || ex.Value != 1<<20 {
		t.Fatalf("bucket 21 exemplar = %+v, want trace 11 value 1<<20", ex)
	}
	if ex := v.ExemplarFor(7); ex != nil {
		t.Fatalf("bucket 7 grew an exemplar: %+v", ex)
	}

	// EndExemplar attaches the span's trace ID.
	h2 := sc.Histogram("dta_ex2_ns", "")
	sp := Start(h2)
	sp.EndExemplar(42)
	found := false
	for i := 0; i < HistBuckets; i++ {
		if id, _ := h2.Exemplar(i); id == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("EndExemplar left no exemplar")
	}
}
