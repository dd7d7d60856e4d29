package main

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dta/internal/obs"
)

// exemplarFor returns v's exemplar for a bucket index (nil if none).
func exemplarFor(v *obs.Value, bucket int) *obs.Exemplar {
	for i := range v.Exemplars {
		if v.Exemplars[i].Bucket == bucket {
			return &v.Exemplars[i]
		}
	}
	return nil
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	sc := r.Scope(obs.L("collector", "0"))
	sc.Counter("dta_rt_total", "a counter").Add(42)
	sc.With(obs.L("shard", "1")).Counter("dta_rt_total", "a counter").Add(8)
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

	snap, err := parsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.Find("dta_rt_total", obs.L("shard", "1")); v == nil || v.Value != 8 || v.Kind != obs.KindCounter {
		t.Fatalf("parsed counter = %+v", v)
	}
	if v := snap.Find("dta_rt_depth"); v == nil || v.Value != -3 || v.Kind != obs.KindGauge {
		t.Fatalf("parsed gauge = %+v", v)
	}
	hv := snap.Find("dta_rt_ns")
	if hv == nil || hv.Kind != obs.KindHistogram {
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

func TestExemplarRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	sc := r.Scope(obs.L("collector", "0"))
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

	snap, err := parsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exemplar-bearing exposition failed to parse: %v", err)
	}
	v := snap.Find("dta_ex_ns")
	if v == nil || v.Kind != obs.KindHistogram {
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
	if ex := exemplarFor(v, 13); ex == nil || ex.TraceID != 9 || ex.Value != 5100 {
		t.Fatalf("bucket 13 exemplar = %+v, want trace 9 value 5100", ex)
	}
	if ex := exemplarFor(v, 21); ex == nil || ex.TraceID != 11 || ex.Value != 1<<20 {
		t.Fatalf("bucket 21 exemplar = %+v, want trace 11 value 1<<20", ex)
	}
	if ex := exemplarFor(v, 7); ex != nil {
		t.Fatalf("bucket 7 grew an exemplar: %+v", ex)
	}
}

// exposition is a /metrics page as a collector serves it: labelled
// counters, a gauge, a fractional gauge and histograms, one with
// exemplars.
func exposition() string {
	r := obs.NewRegistry()
	sc := r.Scope(obs.L("collector", "0"))
	sc.With(obs.L("primitive", "keywrite")).Counter("dta_translator_reports_total", "Reports translated.").Add(4096)
	sc.With(obs.L("primitive", "postcarding")).Counter("dta_translator_reports_total", "Reports translated.").Add(77)
	sc.Gauge("dta_wal_last_lsn", "Highest LSN appended.").Set(2400)
	sc.GaugeFunc("dta_engine_worker_busy", "Busy share.", func() float64 { return 0.375 })
	h := sc.Histogram("dta_wal_fsync_ns", "Fsync latency.")
	for i, v := range []uint64{900, 12_000, 450_000, 1 << 33} {
		h.ObserveEx(v, uint64(i+1))
	}
	sc.With(obs.L("shard", "1")).Histogram("dta_rdma_emit_ns", "Emit latency.").Observe(180)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// renderExposition writes a parsed snapshot back out as exposition
// text: the samples in the order they were parsed (histograms last, as
// the parser lists them), each label set in its parsed order, a
// histogram's buckets cumulative with their canonical le bounds. ok is
// false when the buckets sum past 2^64, which no cumulative form can say.
func renderExposition(s *obs.Snapshot) (text string, ok bool) {
	var b strings.Builder
	labels := func(ls []obs.Label, extra ...string) string {
		parts := extra[:0:0]
		for _, l := range ls {
			parts = append(parts, fmt.Sprintf("%s=%q", l.Key, l.Value))
		}
		return "{" + strings.Join(append(parts, extra...), ",") + "}"
	}
	for _, v := range s.Values {
		fmt.Fprintf(&b, "# TYPE %s %s\n", v.Name, v.Kind)
		if v.Buckets == nil {
			fmt.Fprintf(&b, "%s%s %s\n", v.Name, labels(v.Labels), strconv.FormatFloat(v.Value, 'g', -1, 64))
			continue
		}
		var cum uint64
		for i, n := range v.Buckets {
			if cum+n < cum {
				return "", false
			}
			cum += n
			ex := exemplarFor(&v, i)
			if n == 0 && ex == nil && i != obs.HistBuckets-1 {
				continue
			}
			le := fmt.Sprint(obs.BucketBound(i))
			if i == obs.HistBuckets-1 {
				le = "+Inf"
			}
			fmt.Fprintf(&b, "%s_bucket%s %d", v.Name, labels(v.Labels, `le="`+le+`"`), cum)
			if ex != nil {
				fmt.Fprintf(&b, ` # {trace_id="%d"} %d`, ex.TraceID, ex.Value)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s_sum%s %d\n%s_count%s %d\n", v.Name, labels(v.Labels), v.Sum, v.Name, labels(v.Labels), v.Count)
	}
	return b.String(), true
}

// sameValues compares two parses series by series: names, labels (no
// labels is no labels, nil or empty), kinds, values (NaN equal to NaN),
// histogram counts and buckets, and the exemplar each bucket reports.
func sameValues(a, b *obs.Snapshot) error {
	if len(a.Values) != len(b.Values) {
		return fmt.Errorf("%d series, then %d", len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		x, y := &a.Values[i], &b.Values[i]
		sameFloat := x.Value == y.Value || math.IsNaN(x.Value) && math.IsNaN(y.Value)
		sameLabels := len(x.Labels) == 0 && len(y.Labels) == 0 || reflect.DeepEqual(x.Labels, y.Labels)
		if x.Name != y.Name || !sameLabels || x.Kind != y.Kind || !sameFloat ||
			x.Count != y.Count || x.Sum != y.Sum || !reflect.DeepEqual(x.Buckets, y.Buckets) {
			return fmt.Errorf("series %d: %+v, then %+v", i, *x, *y)
		}
		for j := 0; j < obs.HistBuckets; j++ {
			if ex, ey := exemplarFor(x, j), exemplarFor(y, j); !reflect.DeepEqual(ex, ey) {
				return fmt.Errorf("series %d bucket %d: exemplar %+v, then %+v", i, j, ex, ey)
			}
		}
	}
	return nil
}

// FuzzParsePrometheus: whatever the text, parsePrometheus returns — no
// panic — and what it accepts, written back out as exposition text,
// parses to the same values.
func FuzzParsePrometheus(f *testing.F) {
	f.Add(exposition())
	f.Add("# TYPE x counter\nx 1\nx{a=\"b\"} 2.5\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 3 # {trace_id=\"9\"} 1\nh_bucket{le=\"+Inf\"} 5\nh_sum 12\nh_count 5\n")
	f.Add("x{a=\"1\",b=\"\\\"q\\\"\"} NaN\ny -Inf\n")
	f.Add("x{a=\"1\" 2\n")
	f.Add("x{a=\"p\\x20#\\x20q\"} 1\n") // a label value holding the exemplar separator
	f.Fuzz(func(t *testing.T, text string) {
		s, err := parsePrometheus(strings.NewReader(text))
		if err != nil {
			return
		}
		out, ok := renderExposition(s)
		if !ok {
			return
		}
		again, err := parsePrometheus(strings.NewReader(out))
		if err != nil {
			t.Fatalf("accepted exposition renders as\n%s\nwhich does not parse: %v", out, err)
		}
		if err := sameValues(s, again); err != nil {
			t.Fatalf("accepted exposition renders as\n%s\nwhich parses differently: %v", out, err)
		}
	})
}
