package obs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// exposition is a /metrics page as a collector serves it: labelled
// counters, a gauge, a fractional gauge and histograms, one with
// exemplars.
func exposition() string {
	r := NewRegistry()
	sc := r.Scope(L("collector", "0"))
	sc.With(L("primitive", "keywrite")).Counter("dta_translator_reports_total", "Reports translated.").Add(4096)
	sc.With(L("primitive", "postcarding")).Counter("dta_translator_reports_total", "Reports translated.").Add(77)
	sc.Gauge("dta_wal_last_lsn", "Highest LSN appended.").Set(2400)
	sc.GaugeFunc("dta_engine_worker_busy", "Busy share.", func() float64 { return 0.375 })
	h := sc.Histogram("dta_wal_fsync_ns", "Fsync latency.")
	for i, v := range []uint64{900, 12_000, 450_000, 1 << 33} {
		h.ObserveEx(v, uint64(i+1))
	}
	sc.With(L("shard", "1")).Histogram("dta_rdma_emit_ns", "Emit latency.").Observe(180)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// render writes a parsed snapshot back out as exposition text: the
// samples in the order they were parsed (histograms last, as the parser
// lists them), each label set in its parsed order, a histogram's buckets
// cumulative with their canonical le bounds. ok is false when the
// buckets sum past 2^64, which no cumulative form can say.
func render(s *Snapshot) (text string, ok bool) {
	var b strings.Builder
	labels := func(ls []Label, extra ...string) string {
		parts := extra[:0:0]
		for _, l := range ls {
			parts = append(parts, fmt.Sprintf("%s=%q", l.Key, l.Value))
		}
		return "{" + strings.Join(append(parts, extra...), ",") + "}"
	}
	for _, v := range s.Values {
		fmt.Fprintf(&b, "# TYPE %s %s\n", v.Name, v.Kind)
		if v.Buckets == nil {
			fmt.Fprintf(&b, "%s%s %s\n", v.Name, labels(v.Labels), formatFloat(v.Value))
			continue
		}
		var cum uint64
		for i, n := range v.Buckets {
			if cum+n < cum {
				return "", false
			}
			cum += n
			ex := v.ExemplarFor(i)
			if n == 0 && ex == nil && i != HistBuckets-1 {
				continue
			}
			le := fmt.Sprint(BucketBound(i))
			if i == HistBuckets-1 {
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
func sameValues(a, b *Snapshot) error {
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
		for j := 0; j < HistBuckets; j++ {
			if ex, ey := x.ExemplarFor(j), y.ExemplarFor(j); !reflect.DeepEqual(ex, ey) {
				return fmt.Errorf("series %d bucket %d: exemplar %+v, then %+v", i, j, ex, ey)
			}
		}
	}
	return nil
}

// FuzzParsePrometheus: whatever the text, ParsePrometheus returns — no
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
		s, err := ParsePrometheus(strings.NewReader(text))
		if err != nil {
			return
		}
		out, ok := render(s)
		if !ok {
			return
		}
		again, err := ParsePrometheus(strings.NewReader(out))
		if err != nil {
			t.Fatalf("accepted exposition renders as\n%s\nwhich does not parse: %v", out, err)
		}
		if err := sameValues(s, again); err != nil {
			t.Fatalf("accepted exposition renders as\n%s\nwhich parses differently: %v", out, err)
		}
	})
}

// FuzzParseLabels: whatever the label body, ParseLabels returns — no
// panic — and a label set it accepts, rendered back the way the registry
// renders labels (key="Go-quoted value", comma-separated), parses to the
// same pairs.
func FuzzParseLabels(f *testing.F) {
	for _, s := range []string{`collector="0",shard="1"`, `le="+Inf"`, `trace_id="42"`, `a="x\"y\\z",b=""`, `a=`, `a="1",`, `="v"`, ``} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ls, err := ParseLabels(s)
		if err != nil {
			return
		}
		parts := make([]string, len(ls))
		for i, l := range ls {
			parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
		}
		text := strings.Join(parts, ",")
		again, err := ParseLabels(text)
		if err != nil || !reflect.DeepEqual(again, ls) {
			t.Fatalf("%q → %+v renders as %q, which parses to %+v (%v)", s, ls, text, again, err)
		}
	})
}
