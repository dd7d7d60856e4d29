// Command dtastat renders a live view of a DTA deployment's
// self-telemetry: it polls a collector's -obs endpoint (see dtacollect)
// or any server built on dta.ObsMux, diffs consecutive scrapes, and
// prints per-shard engine activity, per-primitive translator rates,
// RDMA crafting, WAL health and HA degradation as compact tables.
//
//	dtastat -addr 127.0.0.1:9090              # refresh every second
//	dtastat -addr 127.0.0.1:9090 -interval 5s
//	dtastat -addr 127.0.0.1:9090 -once        # one absolute snapshot
//	dtastat -addr 127.0.0.1:9090 -raw         # dump the exposition
//	dtastat -addr 127.0.0.1:9090 -events      # tail the flight recorder
//
// Rates are computed client-side from counter deltas, so dtastat needs
// no server support beyond the Prometheus text endpoint; histograms
// render p50/p99 estimated inside the log2 bucket geometry. The first
// tick of a polling run is labelled a baseline: it shows absolute
// lifetime totals (no previous scrape to diff against), not rates;
// later ticks show per-second rates over the interval.
//
// With -events dtastat tails /debug/events (the control-plane flight
// recorder) instead: one line per event, cursor-resumed each poll, with
// causal chains (SetDown → Resync → Checkpoint) rendered as linked
// continuation lines.
//
// With -traces dtastat tails /debug/traces (the data-plane trace
// pipeline) instead: each sampled report renders as a waterfall of
// stage bars (submit → queue → translate → emit → WAL → fsync → ack)
// with the latency between consecutive stages attributed to the later
// one, followed by cumulative per-segment p50/p99 and a dominant-stage
// attribution summary (queue-wait vs fsync-wait). In the default
// metrics view the trace pipeline contributes one line: the
// trace-derived end-to-end ack p50/p99 under the per-shard engine
// table.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "obs endpoint host:port (or full URL)")
		interval = flag.Duration("interval", time.Second, "polling interval")
		once     = flag.Bool("once", false, "print one absolute snapshot and exit")
		raw      = flag.Bool("raw", false, "dump the raw /metrics exposition and exit")
		events   = flag.Bool("events", false, "tail the flight recorder (/debug/events) instead of metrics")
		traces   = flag.Bool("traces", false, "tail the data-plane trace pipeline (/debug/traces) as stage waterfalls")
	)
	flag.Parse()
	base := baseURL(*addr)
	url := base + "/metrics"

	if *raw {
		body, err := fetch(url)
		if err != nil {
			log.Fatal("dtastat: ", err)
		}
		os.Stdout.Write(body)
		return
	}
	if *events {
		var lastCause uint64
		tail(newFollower[journal.Record](base, "events"), *interval, *once, func(recs []journal.Record, missed uint64) {
			printEvents(os.Stdout, recs, missed, &lastCause)
		})
		return
	}
	if *traces {
		agg := newStageAgg()
		tail(newFollower[trace.JSON](base, "traces"), *interval, *once, func(recs []trace.JSON, missed uint64) {
			printTraces(os.Stdout, recs, missed, agg)
		})
		return
	}

	ack := &traceAck{f: newFollower[trace.JSON](base, "traces")}
	prev, prevAt, err := scrape(url)
	if err != nil {
		log.Fatal("dtastat: ", err)
	}
	if *once {
		render(os.Stdout, prev, 0, ack.poll())
		return
	}
	// The first scrape has nothing to diff against: label it so lifetime
	// totals are not misread as per-interval rates.
	fmt.Println("baseline sample (lifetime totals, not rates; rates follow from the next tick)")
	render(os.Stdout, prev, 0, ack.poll())
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for range tick.C {
		cur, at, err := scrape(url)
		if err != nil {
			log.Fatal("dtastat: ", err)
		}
		elapsed := at.Sub(prevAt)
		fmt.Println()
		render(os.Stdout, cur.Delta(prev), elapsed, ack.poll())
		prev, prevAt = cur, at
	}
}

// baseURL is the endpoint's URL: addr as given when it names a scheme
// (http://h:p, https://h:p), else http://addr.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// follower reads one of the cursor endpoints (/debug/events,
// /debug/traces): each poll resumes from the previous response's
// "last", so every record is delivered exactly once, and the records
// the ring overwrote before a poll could read them are counted missed.
type follower[R any] struct {
	url, key string
	cursor   uint64
}

// newFollower follows base's /debug/<key>, whose envelope carries the
// records under key.
func newFollower[R any](base, key string) *follower[R] {
	return &follower[R]{url: base + "/debug/" + key, key: key}
}

// poll fetches the records published since the previous poll.
func (f *follower[R]) poll() (recs []R, missed uint64, err error) {
	body, err := fetch(fmt.Sprintf("%s?since=%d", f.url, f.cursor))
	if err != nil {
		return nil, 0, err
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", f.key, err)
	}
	var last uint64
	for k, dst := range map[string]any{"last": &last, "missed": &missed, f.key: &recs} {
		if err := json.Unmarshal(env[k], dst); err != nil {
			return nil, 0, fmt.Errorf("%s: %q: %w", f.key, k, err)
		}
	}
	f.cursor = last
	return recs, missed, nil
}

// tail polls f every interval (once: a single time) and hands each
// poll's records to show.
func tail[R any](f *follower[R], interval time.Duration, once bool, show func(recs []R, missed uint64)) {
	for {
		recs, missed, err := f.poll()
		if err != nil {
			log.Fatal("dtastat: ", err)
		}
		show(recs, missed)
		if once {
			return
		}
		time.Sleep(interval)
	}
}

// printEvents renders one poll of the flight recorder, one line per
// event; consecutive events of one causal chain get a linked
// continuation marker.
func printEvents(w io.Writer, recs []journal.Record, missed uint64, lastCause *uint64) {
	if missed > 0 {
		fmt.Fprintf(w, "... %d events lost to ring overwrite ...\n", missed)
		*lastCause = 0
	}
	for i := range recs {
		r := &recs[i]
		link := "  "
		if r.Cause != 0 && r.Cause == *lastCause {
			link = "└▶"
		}
		*lastCause = r.Cause
		who := "-"
		if r.Collector >= 0 {
			who = "c" + strconv.Itoa(r.Collector)
		}
		cause := ""
		if r.Cause != 0 {
			cause = fmt.Sprintf(" [chain %d]", r.Cause)
		}
		fmt.Fprintf(w, "%s %-5s %-10s %-3s %s %s%s\n",
			r.Time.Local().Format("15:04:05.000"), r.Sev, r.Component, who, link, r.Detail, cause)
	}
}

// printTraces renders one poll of the trace pipeline: every new trace
// as a stage waterfall, then the cumulative per-segment latency table.
func printTraces(w io.Writer, recs []trace.JSON, missed uint64, agg *stageAgg) {
	if missed > 0 {
		fmt.Fprintf(w, "... %d traces lost to ring overwrite ...\n", missed)
	}
	for i := range recs {
		printTrace(w, &recs[i], agg)
	}
	if len(recs) > 0 {
		agg.render(w)
	}
}

// dur renders nanoseconds human-readably at µs-or-better precision.
func dur(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
}

// waterfallWidth is the bar area of the per-trace waterfall in columns.
const waterfallWidth = 40

// printTrace renders one trace as a waterfall: stages in chronological
// order, the gap to the next stamp drawn as a bar offset into the
// trace's total span. The latency of a segment is attributed to the
// transition it ends at (e.g. enqueue→dequeue is queue wait,
// wal_write→fsync is fsync wait).
func printTrace(w io.Writer, t *trace.JSON, agg *stageAgg) {
	flags := ""
	if len(t.Flags) > 0 {
		flags = "  [" + strings.Join(t.Flags, ",") + "]"
	}
	fmt.Fprintf(w, "trace %d  seq %d  total %s%s\n", t.ID, t.Seq, dur(t.TotalNs), flags)
	agg.observeTotal(t.TotalNs)
	var domSeg string
	var domNs int64
	rec := t.Record()
	segs := rec.Segments()
	for i, sg := range segs {
		segStr := ""
		start, barLen := 0, 1
		if t.TotalNs > 0 {
			start = int(sg.AtNs * waterfallWidth / t.TotalNs)
		}
		if i+1 < len(segs) {
			name := sg.Name()
			segStr = fmt.Sprintf("  %s %s", name, dur(sg.Ns))
			agg.observeSeg(name, sg.Ns)
			if sg.Ns > domNs {
				domSeg, domNs = name, sg.Ns
			}
			if t.TotalNs > 0 {
				barLen = int(sg.Ns * waterfallWidth / t.TotalNs)
			}
		}
		if barLen < 1 {
			barLen = 1
		}
		if start >= waterfallWidth {
			start = waterfallWidth - 1
		}
		if start+barLen > waterfallWidth {
			barLen = waterfallWidth - start
		}
		bar := strings.Repeat(" ", start) + strings.Repeat("█", barLen)
		fmt.Fprintf(w, "  %-9s +%-9s |%-*s|%s\n", sg.From, dur(sg.AtNs), waterfallWidth, bar, segStr)
	}
	if domSeg != "" {
		agg.observeDominant(domSeg)
	}
}

// stageAgg accumulates per-segment latencies across rendered traces.
type stageAgg struct {
	segs     map[string][]float64
	order    []string
	totals   []float64
	dominant map[string]int
	ntraces  int
}

func newStageAgg() *stageAgg {
	return &stageAgg{segs: make(map[string][]float64), dominant: make(map[string]int)}
}

func (a *stageAgg) observeTotal(ns int64) {
	a.totals = append(a.totals, float64(ns))
	a.ntraces++
}

func (a *stageAgg) observeSeg(name string, ns int64) {
	if _, ok := a.segs[name]; !ok {
		a.order = append(a.order, name)
	}
	a.segs[name] = append(a.segs[name], float64(ns))
}

func (a *stageAgg) observeDominant(name string) { a.dominant[name]++ }

// pctOf estimates quantile q over observed samples (sorted copy).
func pctOf(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// render prints the cumulative per-segment latency table and the
// dominant-stage attribution (which transition most often owned the
// largest share of a trace's latency).
func (a *stageAgg) render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "SEGMENT\tp50\tp99\tdominant-in")
	for _, name := range a.order {
		s := a.segs[name]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d traces\n",
			name, dur(int64(pctOf(s, 0.50))), dur(int64(pctOf(s, 0.99))), a.dominant[name], a.ntraces)
	}
	fmt.Fprintf(tw, "end-to-end\t%s\t%s\t\n",
		dur(int64(pctOf(a.totals, 0.50))), dur(int64(pctOf(a.totals, 0.99))))
	tw.Flush()
}

// traceAck derives the end-to-end ack latency line shown under the
// engine table in the default metrics view: cumulative p50/p99 over
// every trace the pipeline has published since dtastat started.
type traceAck struct {
	f      *follower[trace.JSON]
	totals []float64
	failed bool
}

// poll fetches new traces and returns the rendered summary line, or ""
// when the endpoint is unavailable (older server) or no trace has been
// published yet.
func (a *traceAck) poll() string {
	if a.failed {
		return ""
	}
	recs, _, err := a.f.poll()
	if err != nil {
		a.failed = true // endpoint absent: stop asking
		return ""
	}
	for i := range recs {
		a.totals = append(a.totals, float64(recs[i].TotalNs))
	}
	if len(a.totals) == 0 {
		return ""
	}
	return fmt.Sprintf("traces: e2e ack p50/p99 %s/%s (%d sampled)",
		dur(int64(pctOf(a.totals, 0.50))), dur(int64(pctOf(a.totals, 0.99))), len(a.totals))
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func scrape(url string) (*obs.Snapshot, time.Time, error) {
	body, err := fetch(url)
	if err != nil {
		return nil, time.Time{}, err
	}
	s, err := parsePrometheus(bytes.NewReader(body))
	return s, time.Now(), err
}

// section groups a delta snapshot's series by a label key ("" groups
// everything under one row).
type section struct {
	byKey map[string]map[string]*obs.Value // label value -> metric name -> series
	keys  []string
}

func group(s *obs.Snapshot, prefix, label string) *section {
	sec := &section{byKey: make(map[string]map[string]*obs.Value)}
	for i := range s.Values {
		v := &s.Values[i]
		if len(v.Name) < len(prefix) || v.Name[:len(prefix)] != prefix {
			continue
		}
		k := v.Label(label)
		row, ok := sec.byKey[k]
		if !ok {
			row = make(map[string]*obs.Value)
			sec.byKey[k] = row
			sec.keys = append(sec.keys, k)
		}
		row[v.Name] = v
	}
	sort.Slice(sec.keys, func(i, j int) bool {
		a, errA := strconv.Atoi(sec.keys[i])
		b, errB := strconv.Atoi(sec.keys[j])
		if errA == nil && errB == nil {
			return a < b
		}
		return sec.keys[i] < sec.keys[j]
	})
	return sec
}

// rate renders a counter as a per-second rate (elapsed > 0) or an
// absolute total (first tick / -once).
func rate(v *obs.Value, elapsed time.Duration) string {
	if v == nil {
		return "-"
	}
	if elapsed <= 0 {
		return fmt.Sprintf("%.0f", v.Value)
	}
	return fmt.Sprintf("%.0f/s", v.Value/elapsed.Seconds())
}

func gauge(v *obs.Value) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f", v.Value)
}

// quantiles renders a histogram's p50/p99 in microseconds.
func quantiles(v *obs.Value) string {
	if v == nil || v.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f", v.Quantile(0.50)/1e3, v.Quantile(0.99)/1e3)
}

// utilization is the fraction of the interval a shard worker spent
// inside batches: the batch-span histogram's summed nanoseconds over
// the wall-clock interval.
func utilization(v *obs.Value, elapsed time.Duration) string {
	if v == nil || elapsed <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(v.Sum)/float64(elapsed.Nanoseconds()))
}

func render(w io.Writer, s *obs.Snapshot, elapsed time.Duration, ackLine string) {
	renderEngine(w, s, elapsed, ackLine)
	renderTranslator(w, s, elapsed)
	renderRDMA(w, s, elapsed)
	renderWAL(w, s, elapsed)
	renderHA(w, s, elapsed)
}

func renderEngine(w io.Writer, s *obs.Snapshot, elapsed time.Duration, ackLine string) {
	sec := group(s, "dta_engine_", "shard")
	if len(sec.keys) > 0 {
		tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
		fmt.Fprintln(tw, "ENGINE\tenqueued\tprocessed\tdropped\tstalls\tdepth\tbatch p50/p99 µs\tutil")
		for _, k := range sec.keys {
			row := sec.byKey[k]
			fmt.Fprintf(tw, "shard %s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", k,
				rate(row["dta_engine_enqueued_total"], elapsed),
				rate(row["dta_engine_processed_total"], elapsed),
				rate(row["dta_engine_dropped_total"], elapsed),
				rate(row["dta_engine_queue_stalls_total"], elapsed),
				gauge(row["dta_engine_queue_depth"]),
				quantiles(row["dta_engine_batch_ns"]),
				utilization(row["dta_engine_batch_ns"], elapsed))
		}
		tw.Flush()
	}
	// Trace-derived end-to-end ack latency rides under the shard table:
	// per-shard utilization says how busy the workers are, this line says
	// what that does to a report's submit→durable-ack time.
	if ackLine != "" {
		fmt.Fprintln(w, ackLine)
	}
}

func renderTranslator(w io.Writer, s *obs.Snapshot, elapsed time.Duration) {
	sec := group(s, "dta_translator_reports_total", "primitive")
	if len(sec.keys) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "TRANSLATOR\treports\t")
	for _, k := range sec.keys {
		fmt.Fprintf(tw, "%s\t%s\t\n", k, rate(sec.byKey[k]["dta_translator_reports_total"], elapsed))
	}
	flat := group(s, "dta_", "")
	all := flat.byKey[""]
	fmt.Fprintf(tw, "parse errors\t%s\t\n", rate(all["dta_translator_parse_errors_total"], elapsed))
	fmt.Fprintf(tw, "rate-limit drops\t%s\t\n", rate(all["dta_rate_dropped_total"], elapsed))
	fmt.Fprintf(tw, "report span p50/p99 µs\t%s\t(traced reports)\n", quantiles(all["dta_translator_report_ns"]))
	tw.Flush()
}

func renderRDMA(w io.Writer, s *obs.Snapshot, elapsed time.Duration) {
	all := group(s, "dta_", "").byKey[""]
	if all["dta_rdma_writes_total"] == nil && all["dta_rdma_atomics_total"] == nil {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "RDMA\twrites\tatomics\tcrafts\trepatches\temit p50/p99 µs (traced)")
	fmt.Fprintf(tw, "\t%s\t%s\t%s\t%s\t%s\n",
		rate(all["dta_rdma_writes_total"], elapsed),
		rate(all["dta_rdma_atomics_total"], elapsed),
		rate(all["dta_rdma_crafts_total"], elapsed),
		rate(all["dta_rdma_repatches_total"], elapsed),
		quantiles(all["dta_rdma_emit_ns"]))
	tw.Flush()
}

func renderWAL(w io.Writer, s *obs.Snapshot, elapsed time.Duration) {
	all := group(s, "dta_wal_", "").byKey[""]
	if all == nil || all["dta_wal_appends_total"] == nil {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "WAL\tappends\tsyncs\tfsyncs/1k appends\trecords/publish\tdegraded acks\tring occ/hwm B\tstalls\tflush p50/p99 µs\tfsync p50/p99 µs\tcommit wait p50/p99 µs")
	fmt.Fprintf(tw, "\t%s\t%s\t%s\t%s\t%s\t%s/%s\t%s\t%s\t%s\t%s\n",
		rate(all["dta_wal_appends_total"], elapsed),
		rate(all["dta_wal_syncs_total"], elapsed),
		perK(all["dta_wal_syncs_total"], all["dta_wal_appends_total"]),
		mean(all["dta_wal_publish_records"]),
		rate(all["dta_wal_degraded_acks_total"], elapsed),
		gauge(all["dta_wal_ring_occupancy"]),
		gauge(all["dta_wal_ring_high_water"]),
		rate(all["dta_wal_ring_stalls_total"], elapsed),
		quantiles(all["dta_wal_flush_ns"]),
		quantiles(all["dta_wal_fsync_ns"]),
		quantiles(all["dta_wal_commit_wait_ns"]))
	tw.Flush()
}

// mean renders a histogram's mean observation — for the WAL's
// publications, how many records share one hand-over to the flusher.
func mean(v *obs.Value) string {
	if v == nil || v.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(v.Sum)/float64(v.Count))
}

// perK renders num per thousand den over the interval — for the WAL,
// how far group commit amortises the fsync (1000 = one per record).
func perK(num, den *obs.Value) string {
	if num == nil || den == nil || den.Value == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", 1000*num.Value/den.Value)
}

func renderHA(w io.Writer, s *obs.Snapshot, elapsed time.Duration) {
	all := group(s, "dta_ha_", "").byKey[""]
	if all == nil {
		return
	}
	degraded := all["dta_ha_degraded_writes_total"]
	lost := all["dta_ha_lost_writes_total"]
	if degraded == nil && lost == nil {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "HA\tdegraded writes\tlost writes\tfailover queries\tread repairs\tresyncs\tresync retries")
	fmt.Fprintf(tw, "\t%s\t%s\t%s\t%s\t%s\t%s\n",
		rate(degraded, elapsed),
		rate(lost, elapsed),
		rate(all["dta_ha_failover_queries_total"], elapsed),
		rate(all["dta_ha_read_repairs_total"], elapsed),
		rate(all["dta_ha_resyncs_total"], elapsed),
		rate(all["dta_ha_resync_retries_total"], elapsed))
	tw.Flush()
}
