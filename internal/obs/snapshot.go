package obs

import (
	"math"
	"sort"
	"strings"
	"time"
)

// Value is one series in a snapshot. Counters and gauges carry Value;
// histograms carry Count, Sum, and the raw (non-cumulative) log2
// Buckets.
type Value struct {
	Name      string
	Labels    []Label
	Kind      Kind
	Value     float64
	Count     uint64
	Sum       uint64
	Buckets   []uint64   // len HistBuckets when Kind==KindHistogram
	Exemplars []Exemplar // bucket exemplars present in the exposition
}

// Exemplar links one histogram bucket back to the last trace that
// landed in it (see Histogram.ObserveEx and /debug/traces).
type Exemplar struct {
	Bucket  int // log2 bucket index
	TraceID uint64
	Value   uint64 // the exemplar's observed value
}

// Label returns the value of the named label ("" when absent).
func (v *Value) Label(key string) string {
	for _, l := range v.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Quantile estimates the q-quantile (0 < q <= 1) from the log2
// buckets, interpolating linearly inside the winning bucket. Log2
// buckets bound the error to 2x — good enough for "is p99 flush
// latency milliseconds or seconds", which is what the buckets are for.
func (v *Value) Quantile(q float64) float64 {
	if v.Count == 0 || len(v.Buckets) == 0 {
		return 0
	}
	target := q * float64(v.Count)
	var cum uint64
	for i, n := range v.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) >= target {
			lo := float64(0)
			if i > 0 {
				lo = float64(BucketBound(i-1)) + 1
			}
			hi := float64(BucketBound(i))
			frac := (target - float64(prev)) / float64(n)
			return lo + frac*(hi-lo)
		}
	}
	return float64(BucketBound(len(v.Buckets) - 1))
}

// Snapshot is a point-in-time copy of every registered series.
type Snapshot struct {
	At     time.Time
	Values []Value
}

// Snapshot captures the registry. It only loads atomics (plus any
// registered read-time funcs), so it can run concurrently with ingest.
func (r *Registry) Snapshot() *Snapshot {
	ms := r.sorted()
	s := &Snapshot{At: time.Now(), Values: make([]Value, 0, len(ms))}
	for _, m := range ms {
		labels, _ := ParseLabels(m.labels)
		v := Value{Name: m.name, Labels: labels, Kind: m.kind}
		if m.kind == KindHistogram {
			v.Count = m.hist.Count()
			v.Sum = m.hist.Sum()
			v.Buckets = make([]uint64, HistBuckets)
			for i := range v.Buckets {
				v.Buckets[i] = m.hist.buckets[i].Load()
			}
		} else {
			v.Value = m.value()
		}
		s.Values = append(s.Values, v)
	}
	return s
}

// Find returns the series with the given name whose labels include
// every given pair (nil when absent).
func (s *Snapshot) Find(name string, labels ...Label) *Value {
	for i := range s.Values {
		v := &s.Values[i]
		if v.Name != name {
			continue
		}
		ok := true
		for _, want := range labels {
			if v.Label(want.Key) != want.Value {
				ok = false
				break
			}
		}
		if ok {
			return v
		}
	}
	return nil
}

// key identifies a series for delta matching.
func (v *Value) key() string {
	parts := make([]string, 0, len(v.Labels))
	for _, l := range v.Labels {
		parts = append(parts, l.Key+"="+l.Value)
	}
	sort.Strings(parts)
	return v.Name + "\x00" + strings.Join(parts, ",")
}

// Delta returns s - prev: counters and histogram counts/sums/buckets
// subtract (clamped at zero across restarts); gauges keep their current
// value (a level has no meaningful difference over an interval). Series
// absent from prev pass through unchanged.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	idx := make(map[string]*Value, len(prev.Values))
	for i := range prev.Values {
		idx[prev.Values[i].key()] = &prev.Values[i]
	}
	out := &Snapshot{At: s.At, Values: make([]Value, len(s.Values))}
	copy(out.Values, s.Values)
	for i := range out.Values {
		v := &out.Values[i]
		p, ok := idx[v.key()]
		if !ok {
			continue
		}
		switch v.Kind {
		case KindCounter:
			v.Value = math.Max(0, v.Value-p.Value)
		case KindHistogram:
			v.Count = sub(v.Count, p.Count)
			v.Sum = sub(v.Sum, p.Sum)
			buckets := make([]uint64, len(v.Buckets))
			for j := range buckets {
				pb := uint64(0)
				if j < len(p.Buckets) {
					pb = p.Buckets[j]
				}
				buckets[j] = sub(v.Buckets[j], pb)
			}
			v.Buckets = buckets
		}
	}
	return out
}

func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
