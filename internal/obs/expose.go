package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in Prometheus text
// exposition format (version 0.0.4), grouped by metric name with one
// HELP/TYPE block per name. Histograms render cumulative le-buckets
// plus _sum and _count. The walk only loads atomics, so it is safe (and
// cheap) to call concurrently with full-rate ingest.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var prev string
	for _, m := range r.sorted() {
		if m.name != prev {
			prev = m.name
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case KindHistogram:
			writeHistogram(bw, m)
		default:
			fmt.Fprintf(bw, "%s%s %s\n", m.name, wrapLabels(m.labels), formatFloat(m.value()))
		}
	}
	return bw.Flush()
}

// wrapLabels brackets a pre-rendered label string ({} elided when
// empty).
func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// joinLabels appends extra rendered pairs to a pre-rendered label set.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return "{" + labels + "," + extra + "}"
}

func writeHistogram(w io.Writer, m *metric) {
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		n := m.hist.buckets[i].Load()
		if n == 0 && i != HistBuckets-1 {
			continue // fixed log2 geometry: elide empty interior buckets
		}
		cum += n
		le := strconv.FormatUint(BucketBound(i), 10)
		if i == HistBuckets-1 {
			le = "+Inf"
		}
		line := fmt.Sprintf("%s_bucket%s %d", m.name, joinLabels(m.labels, `le="`+le+`"`), cum)
		// OpenMetrics-style exemplar: the last trace ID that landed in
		// this bucket, with its observed value, linking the histogram
		// back to /debug/traces.
		if id, v := m.hist.Exemplar(i); id != 0 {
			line += fmt.Sprintf(` # {trace_id="%d"} %d`, id, v)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", m.name, wrapLabels(m.labels), m.hist.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, wrapLabels(m.labels), m.hist.Count())
}

// formatFloat renders a sample value; integral values (the common case
// — counters) print without an exponent or trailing zeros.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as Prometheus text at any path.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Endpoint is one path an observability mux serves.
type Endpoint struct {
	Path    string
	Handler http.Handler
}

// Mux builds the observability endpoint: /metrics (Prometheus text),
// /debug/vars (expvar: cmdline, memstats), the full /debug/pprof/*
// suite and then extra, on a private mux — none of this touches
// http.DefaultServeMux, so embedding applications keep control of
// their own handler space. Its / page lists every path mounted.
func Mux(r *Registry, extra ...Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	// The pprof index links its own sub-handlers, so the page lists
	// the subtree once.
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	index := "dta observability endpoint\n\n"
	for _, e := range append([]Endpoint{
		{"/metrics", r.Handler()},
		{"/debug/vars", expvar.Handler()},
		{"/debug/pprof/", http.HandlerFunc(pprof.Index)},
	}, extra...) {
		mux.Handle(e.Path, e.Handler)
		index += e.Path + "\n"
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, index)
	})
	return mux
}

// ParseLabels parses a rendered label body (`k1="v1",k2="v2"`) back
// into sorted pairs. Values are Go-quoted by renderLabels, so Unquote
// round-trips exactly; keys must be label names ([a-zA-Z_][a-zA-Z0-9_]*),
// so a quote or a brace in the body is always a value's.
func ParseLabels(s string) ([]Label, error) {
	if s == "" {
		return nil, nil
	}
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("obs: malformed label set at %q", s)
		}
		key := s[:eq]
		if !labelName(key) {
			return nil, fmt.Errorf("obs: bad label name %q", key)
		}
		rest := s[eq+1:]
		// Find the closing quote, honouring backslash escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("obs: unterminated label value at %q", s)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("obs: bad label value %q: %w", rest[:end+1], err)
		}
		out = append(out, Label{Key: key, Value: val})
		s = rest[end+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("obs: expected ',' at %q", s)
			}
			s = s[1:]
		}
	}
	return out, nil
}

// labelName reports whether s is a Prometheus label name.
func labelName(s string) bool {
	for i, c := range []byte(s) {
		letter := c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return s != ""
}
