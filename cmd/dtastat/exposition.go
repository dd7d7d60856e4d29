package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"dta/internal/obs"
)

// parsePrometheus reads Prometheus text exposition (as a registry's
// WritePrometheus produces it) back into a snapshot. Histogram
// _bucket/_sum/_count series are reassembled into one KindHistogram
// value with the cumulative buckets differenced back to raw counts and
// the le label stripped.
func parsePrometheus(r io.Reader) (*obs.Snapshot, error) {
	s := &obs.Snapshot{At: time.Now()}
	types := map[string]obs.Kind{}
	type histKey struct{ name, labels string }
	type histAccum struct {
		val obs.Value
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
					types[fields[2]] = obs.KindCounter
				case "gauge":
					types[fields[2]] = obs.KindGauge
				case "histogram":
					types[fields[2]] = obs.KindHistogram
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
			return nil, fmt.Errorf("dtastat: bad sample value in %q: %w", line, err)
		}
		if base, suffix, isHist := histSeries(name, types); isHist {
			labels, le, err := stripLE(labelStr)
			if err != nil {
				return nil, err
			}
			k := histKey{base, labelKey(labels)}
			h, ok := hists[k]
			if !ok {
				h = &histAccum{val: obs.Value{Name: base, Labels: labels, Kind: obs.KindHistogram}}
				hists[k] = h
				histOrder = append(histOrder, k)
			}
			switch suffix {
			case "_bucket":
				h.cum = append(h.cum, uint64(val))
				h.les = append(h.les, le)
				if exStr != "" {
					if id, exVal, err := parseExemplar(exStr); err == nil {
						if idx := bucketIndexForLE(le); idx >= 0 && idx < obs.HistBuckets {
							h.val.Exemplars = append(h.val.Exemplars, obs.Exemplar{Bucket: idx, TraceID: id, Value: exVal})
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
		labels, err := obs.ParseLabels(labelStr)
		if err != nil {
			return nil, err
		}
		kind := types[name]
		s.Values = append(s.Values, obs.Value{Name: name, Labels: labels, Kind: kind, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Difference cumulative buckets back to raw per-bucket counts and
	// re-project onto the fixed log2 geometry.
	for _, k := range histOrder {
		h := hists[k]
		raw := make([]uint64, obs.HistBuckets)
		var prev uint64
		for i, cum := range h.cum {
			n := cum - min(prev, cum) // clamped at zero
			prev = cum
			idx := bucketIndexForLE(h.les[i])
			if idx >= 0 && idx < obs.HistBuckets {
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
			return "", "", "", fmt.Errorf("dtastat: malformed sample %q", line)
		}
		return line[:i], line[i+1 : j], strings.TrimSpace(line[j+1:]), nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", "", "", fmt.Errorf("dtastat: malformed sample %q", line)
	}
	return fields[0], "", fields[1], nil
}

// parseExemplar parses the exemplar body `{trace_id="N"} V` (the part
// after the ` # ` separator) back into its trace ID and value.
func parseExemplar(s string) (traceID, value uint64, err error) {
	if len(s) == 0 || s[0] != '{' {
		return 0, 0, fmt.Errorf("dtastat: malformed exemplar %q", s)
	}
	j := strings.IndexByte(s, '}')
	if j < 0 {
		return 0, 0, fmt.Errorf("dtastat: malformed exemplar %q", s)
	}
	labels, err := obs.ParseLabels(s[1:j])
	if err != nil {
		return 0, 0, err
	}
	for _, l := range labels {
		if l.Key == "trace_id" {
			traceID, err = strconv.ParseUint(l.Value, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("dtastat: bad exemplar trace_id %q: %w", l.Value, err)
			}
		}
	}
	if traceID == 0 {
		return 0, 0, fmt.Errorf("dtastat: exemplar missing trace_id in %q", s)
	}
	value, err = strconv.ParseUint(strings.TrimSpace(s[j+1:]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("dtastat: bad exemplar value in %q: %w", s, err)
	}
	return traceID, value, nil
}

// histSeries reports whether name is a _bucket/_sum/_count series of a
// TYPE histogram metric.
func histSeries(name string, types map[string]obs.Kind) (base, suffix string, ok bool) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			b := strings.TrimSuffix(name, suf)
			if types[b] == obs.KindHistogram {
				return b, suf, true
			}
		}
	}
	return "", "", false
}

// stripLE removes the le label from a bucket series' label set.
func stripLE(labelStr string) ([]obs.Label, string, error) {
	labels, err := obs.ParseLabels(labelStr)
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
		return obs.HistBuckets - 1
	}
	bound, err := strconv.ParseUint(le, 10, 64)
	if err != nil {
		return -1
	}
	// BucketBound(i) = 2^i - 1, so bound+1 is a power of two with
	// bit length i+1.
	return len(strconv.FormatUint(bound+1, 2)) - 1
}

// labelKey renders parsed labels in their canonical form, sorted by key,
// to key a histogram's series by.
func labelKey(labels []obs.Label) string {
	ls := slices.Clone(labels)
	slices.SortFunc(ls, func(a, b obs.Label) int { return strings.Compare(a.Key, b.Key) })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return strings.Join(parts, ",")
}
