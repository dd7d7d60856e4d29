package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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

// ExemplarFor returns the exemplar for a bucket index (nil if none).
func (v *Value) ExemplarFor(bucket int) *Exemplar {
	for i := range v.Exemplars {
		if v.Exemplars[i].Bucket == bucket {
			return &v.Exemplars[i]
		}
	}
	return nil
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

// Mean returns a histogram's mean observation (0 when empty).
func (v *Value) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return float64(v.Sum) / float64(v.Count)
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

// Rate divides a delta snapshot's counters (and histogram counts) by
// the interval, yielding per-second rates. Gauges pass through.
func (s *Snapshot) Rate(d time.Duration) *Snapshot {
	secs := d.Seconds()
	if secs <= 0 {
		return s
	}
	out := &Snapshot{At: s.At, Values: make([]Value, len(s.Values))}
	copy(out.Values, s.Values)
	for i := range out.Values {
		v := &out.Values[i]
		if v.Kind == KindCounter {
			v.Value /= secs
		}
	}
	return out
}

// ParsePrometheus reads Prometheus text exposition (as produced by
// WritePrometheus) back into a Snapshot — the dtastat client side.
// Histogram _bucket/_sum/_count series are reassembled into one
// KindHistogram Value with the cumulative buckets differenced back to
// raw counts and the le label stripped.
func ParsePrometheus(r io.Reader) (*Snapshot, error) {
	s := &Snapshot{At: time.Now()}
	types := map[string]Kind{}
	type histKey struct{ name, labels string }
	type histAccum struct {
		val Value
		cum []uint64 // cumulative bucket counts, in exposition order
		les []string // matching le bounds
	}
	hists := map[histKey]*histAccum{}
	var histOrder []histKey

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter":
					types[fields[2]] = KindCounter
				case "gauge":
					types[fields[2]] = KindGauge
				case "histogram":
					types[fields[2]] = KindHistogram
				}
			}
			continue
		}
		// Split off an OpenMetrics-style exemplar suffix
		// (` # {trace_id="N"} V`) before sample parsing: the exemplar's
		// own '}' would otherwise defeat the label-brace scan. It starts
		// past the label set, whose quoted values may hold " # " too.
		exStr := ""
		end := labelsEnd(line)
		if i := strings.Index(line[end:], " # "); i >= 0 {
			exStr = strings.TrimSpace(line[end+i+3:])
			line = strings.TrimSpace(line[:end+i])
		}
		name, labelStr, valStr, err := splitSample(line)
		if err != nil {
			return nil, err
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad sample value in %q: %w", line, err)
		}
		if base, suffix, isHist := histSeries(name, types); isHist {
			labels, le, err := stripLE(labelStr)
			if err != nil {
				return nil, err
			}
			k := histKey{base, renderLabelPairs(labels)}
			h, ok := hists[k]
			if !ok {
				h = &histAccum{val: Value{Name: base, Labels: labels, Kind: KindHistogram}}
				hists[k] = h
				histOrder = append(histOrder, k)
			}
			switch suffix {
			case "_bucket":
				h.cum = append(h.cum, uint64(val))
				h.les = append(h.les, le)
				if exStr != "" {
					if id, exVal, err := parseExemplar(exStr); err == nil {
						if idx := bucketIndexForLE(le); idx >= 0 && idx < HistBuckets {
							h.val.Exemplars = append(h.val.Exemplars, Exemplar{Bucket: idx, TraceID: id, Value: exVal})
						}
					}
				}
			case "_sum":
				h.val.Sum = uint64(val)
			case "_count":
				h.val.Count = uint64(val)
			}
			continue
		}
		labels, err := ParseLabels(labelStr)
		if err != nil {
			return nil, err
		}
		kind := types[name]
		s.Values = append(s.Values, Value{Name: name, Labels: labels, Kind: kind, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Difference cumulative buckets back to raw per-bucket counts and
	// re-project onto the fixed log2 geometry.
	for _, k := range histOrder {
		h := hists[k]
		raw := make([]uint64, HistBuckets)
		var prev uint64
		for i, cum := range h.cum {
			n := sub(cum, prev)
			prev = cum
			idx := bucketIndexForLE(h.les[i])
			if idx >= 0 && idx < HistBuckets {
				raw[idx] += n
			}
		}
		h.val.Buckets = raw
		s.Values = append(s.Values, h.val)
	}
	return s, nil
}

// labelsEnd is the offset just past a sample line's label set — its
// first '}' outside a quoted value — or 0 when it has none.
func labelsEnd(line string) int {
	i := strings.IndexByte(line, '{')
	if i < 0 {
		return 0
	}
	quoted := false
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case quoted && c == '\\':
			j++
		case c == '"':
			quoted = !quoted
		case !quoted && c == '}':
			return j + 1
		}
	}
	return 0
}

// splitSample splits `name{labels} value` / `name value`.
func splitSample(line string) (name, labels, value string, err error) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", fmt.Errorf("obs: malformed sample %q", line)
		}
		return line[:i], line[i+1 : j], strings.TrimSpace(line[j+1:]), nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", "", "", fmt.Errorf("obs: malformed sample %q", line)
	}
	return fields[0], "", fields[1], nil
}

// parseExemplar parses the exemplar body `{trace_id="N"} V` (the part
// after the ` # ` separator) back into its trace ID and value.
func parseExemplar(s string) (traceID, value uint64, err error) {
	if len(s) == 0 || s[0] != '{' {
		return 0, 0, fmt.Errorf("obs: malformed exemplar %q", s)
	}
	j := strings.IndexByte(s, '}')
	if j < 0 {
		return 0, 0, fmt.Errorf("obs: malformed exemplar %q", s)
	}
	labels, err := ParseLabels(s[1:j])
	if err != nil {
		return 0, 0, err
	}
	for _, l := range labels {
		if l.Key == "trace_id" {
			traceID, err = strconv.ParseUint(l.Value, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("obs: bad exemplar trace_id %q: %w", l.Value, err)
			}
		}
	}
	if traceID == 0 {
		return 0, 0, fmt.Errorf("obs: exemplar missing trace_id in %q", s)
	}
	value, err = strconv.ParseUint(strings.TrimSpace(s[j+1:]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("obs: bad exemplar value in %q: %w", s, err)
	}
	return traceID, value, nil
}

// histSeries reports whether name is a _bucket/_sum/_count series of a
// TYPE histogram metric.
func histSeries(name string, types map[string]Kind) (base, suffix string, ok bool) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			b := strings.TrimSuffix(name, suf)
			if types[b] == KindHistogram {
				return b, suf, true
			}
		}
	}
	return "", "", false
}

// stripLE removes the le label from a bucket series' label set.
func stripLE(labelStr string) ([]Label, string, error) {
	labels, err := ParseLabels(labelStr)
	if err != nil {
		return nil, "", err
	}
	le := ""
	out := labels[:0]
	for _, l := range labels {
		if l.Key == "le" {
			le = l.Value
			continue
		}
		out = append(out, l)
	}
	return out, le, nil
}

// bucketIndexForLE maps an le bound back to its log2 bucket index.
func bucketIndexForLE(le string) int {
	if le == "+Inf" {
		return HistBuckets - 1
	}
	bound, err := strconv.ParseUint(le, 10, 64)
	if err != nil {
		return -1
	}
	// BucketBound(i) = 2^i - 1, so bound+1 is a power of two with
	// bit length i+1.
	return len(strconv.FormatUint(bound+1, 2)) - 1
}

// renderLabelPairs renders parsed labels back to the canonical sorted
// string form for keying.
func renderLabelPairs(labels []Label) string { return renderLabels(labels) }
