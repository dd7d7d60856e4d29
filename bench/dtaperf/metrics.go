package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef declares one metric; the lists below must equal the ones in
// BENCHMARK.json (a test compares them).
type metricDef struct {
	name   string
	unit   string
	higher bool    // better direction
	bound  float64 // end-to-end only
}

var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"reports_per_s", "1/s", true, 0.25},
	{"cpu_ns_per_report", "ns", false, 0.25},
	{"ack_p50_us", "us", false, 0.25},
	{"query_p50_ns", "ns", false, 0.25},
	{"peak_rss_mib", "MiB", false, 0.15},
	{"verified_share", "ratio", true, 0.01},
}

var perLayer = []metricDef{
	// dta: reporters, System, barriers.
	{name: "dta.submit_ns", unit: "ns"},
	{name: "dta.barrier_us", unit: "us"},
	{name: "dta.ack_p99_us", unit: "us"},
	{name: "dta.query_p99_ns", unit: "ns"},
	{name: "dta.absent_share", unit: "ratio"},
	{name: "dta.wrong_share", unit: "ratio"},
	{name: "dta.allocs_per_kreport", unit: "count"},
	// wire / reporter / crc.
	{name: "wire.stage_ns", unit: "ns"},
	{name: "wire.encode_staged_ns", unit: "ns"},
	{name: "wire.decode_staged_ns", unit: "ns"},
	{name: "reporter.encode_frame_ns", unit: "ns"},
	{name: "wire.decode_frame_ns", unit: "ns"},
	{name: "crc.hash16_ns", unit: "ns"},
	// engine.
	{name: "engine.queue_ns", unit: "ns"},
	{name: "engine.queue_stalls", unit: "count"},
	{name: "engine.reports_per_batch", unit: "count", higher: true},
	{name: "engine.worker_busy_share", unit: "ratio"},
	// translator.
	{name: "translator.kw_ns", unit: "ns"},
	{name: "translator.ki_ns", unit: "ns"},
	{name: "translator.pc_ns", unit: "ns"},
	{name: "translator.ap_ns", unit: "ns"},
	{name: "translator.rdma_msgs_per_report", unit: "count"},
	{name: "translator.pc_emits_per_postcard", unit: "ratio"},
	{name: "translator.ki_aggregated_share", unit: "ratio", higher: true},
	// rdma / collector.
	{name: "rdma.build_write_ns", unit: "ns"},
	{name: "rdma.repatch_ns", unit: "ns"},
	{name: "rdma.device_process_ns", unit: "ns"},
	{name: "collector.emit_ns", unit: "ns"},
	// core stores.
	{name: "core.keywrite.query_ns", unit: "ns"},
	{name: "core.postcarding.query_ns", unit: "ns"},
	{name: "core.keyincrement.query_ns", unit: "ns"},
	{name: "core.appendlist.poll_ns", unit: "ns"},
	// wal / snapshot.
	{name: "wal.append_ns", unit: "ns"},
	{name: "wal.bytes_per_report", unit: "B"},
	{name: "wal.flush_ns_per_report", unit: "ns"},
	{name: "wal.fsync_p50_us", unit: "us"},
	{name: "wal.fsyncs_per_kreport", unit: "count"},
	{name: "wal.ring_stalls", unit: "count"},
	{name: "wal.replay_ns_per_record", unit: "ns"},
	{name: "wal.checkpoint_s", unit: "s"},
	{name: "snapshot.capture_ms", unit: "ms"},
	{name: "snapshot.bytes", unit: "B"},
	// ha.
	{name: "ha.owners_ns", unit: "ns"},
	{name: "ha.fanout_ns_per_replica", unit: "ns"},
	{name: "ha.lookup_ns", unit: "ns"},
	{name: "ha.read_repairs", unit: "count"},
	// obs.
	{name: "obs.snapshot_ms", unit: "ms"},
	{name: "obs.overhead_share", unit: "ratio"},
	// the benchmark itself.
	{name: "host.mem_ns", unit: "ns"},
	{name: "host.alu_ns", unit: "ns"},
	{name: "bench.gen_ns", unit: "ns"},
	{name: "bench.trace_overhead_share", unit: "ratio"},
	{name: "bench.budget_gap_share", unit: "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail precedes the report line: every end-to-end timing under each
// correction, so -selfcheck (and a reader) can see what the calibration
// did. Keys: raw, corrected (the frozen correction), mem (the memory
// kernel alone).
type detail struct {
	Workload string                        `json:"workload"`
	Seed     uint64                        `json:"seed"`
	Detail   map[string]map[string]float64 `json:"detail"`
	// Cycles holds the raw per-cycle samples (-v only).
	Cycles map[string][]float64 `json:"cycles,omitempty"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// endToEndValues computes the gated metrics under one correction.
func (r *runner) endToEndValues(c correction) map[string]float64 {
	res := &r.res
	v := map[string]float64{
		"setup_s":           median(res.setupS.corrected(c)),
		"reports_per_s":     median(res.rps.corrected(c)),
		"cpu_ns_per_report": median(res.cpuNs.corrected(c)),
		"ack_p50_us":        median(res.ackP50Us.corrected(c)),
		"query_p50_ns":      median(res.queryP50Ns.corrected(c)),
		"peak_rss_mib":      res.peakRSS,
		"verified_share":    float64(r.tally.n[correct]) / float64(max(r.tally.total(), 1)),
	}
	return v
}

func (r *runner) detail() detail {
	d := detail{Workload: r.w.name, Seed: r.o.seed, Detail: map[string]map[string]float64{}}
	raw, frozen, mem := r.endToEndValues(corrNone), r.endToEndValues(corrFrozen), r.endToEndValues(corrMem)
	for _, m := range endToEnd {
		d.Detail[m.name] = map[string]float64{"raw": raw[m.name], "corrected": frozen[m.name], "mem": mem[m.name]}
	}
	memNs, aluNs := kernelSamples(r.res.host)
	d.Detail["host.mem_ns"] = map[string]float64{"raw": median(memNs)}
	d.Detail["host.alu_ns"] = map[string]float64{"raw": median(aluNs)}
	if verbose {
		d.Cycles = map[string][]float64{
			"mem_ns": memNs, "alu_ns": aluNs, "reports_per_s": r.res.rps.raw, "cpu_ns_per_report": r.res.cpuNs.raw,
			"ack_p50_us": r.res.ackP50Us.raw, "query_p50_ns": r.res.queryP50Ns.raw, "setup_s": r.res.setupS.raw,
		}
		d.Cycles["setup_mem_ns"], d.Cycles["setup_alu_ns"] = kernelSamples(r.res.setupS.speed)
	}
	return d
}

// kernelSamples splits calibration samples into the two kernels' series.
func kernelSamples(hs []hostSpeed) (memNs, aluNs []float64) {
	for _, h := range hs {
		memNs, aluNs = append(memNs, h.memNs), append(aluNs, h.aluNs)
	}
	return memNs, aluNs
}

func (r *runner) correct() bool {
	// A run is correct when nothing failed and the verifier actually
	// verified: every workload's exact-answer share is far above a half.
	return r.failed() == 0 && r.tally.total() > 0 && r.tally.n[correct]*2 > r.tally.total()
}

func (r *runner) report(values map[string]float64, defs []metricDef) report {
	rep := report{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]metricValue{}}
	for _, m := range defs {
		rep.Metrics[m.name] = metricValue{Value: finite(values[m.name]), Unit: m.unit}
	}
	return rep
}

func printTable(w io.Writer, title string, defs []metricDef, cols []string, rows map[string][]float64) {
	fmt.Fprintf(w, "%s\n%-34s %-6s", title, "metric", "unit")
	for _, c := range cols {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, m := range defs {
		fmt.Fprintf(w, "%-34s %-6s", m.name, m.unit)
		for _, v := range rows[m.name] {
			fmt.Fprintf(w, " %14.6g", v)
		}
		fmt.Fprintln(w)
	}
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printCycles lists what each cycle measured, raw, beside the host speed
// it was measured under.
func (r *runner) printCycles(w io.Writer) {
	res := &r.res
	fmt.Fprintf(w, "set-up repetitions (s, raw):")
	for i, v := range res.setupS.raw {
		fmt.Fprintf(w, " %.4f@%.2fns", v, res.setupS.speed[i].memNs)
	}
	fmt.Fprintf(w, "\n%5s %8s %8s %12s %10s %10s %10s\n", "cycle", "mem_ns", "alu_ns", "reports/s", "cpu_ns", "ack_us", "query_ns")
	for i := range res.rps.raw {
		h := res.rps.speed[i]
		fmt.Fprintf(w, "%5d %8.3f %8.3f %12.0f %10.1f %10.1f %10.1f\n", i, h.memNs, h.aluNs,
			res.rps.raw[i], res.cpuNs.raw[i], res.ackP50Us.raw[i], res.queryP50Ns.raw[i])
	}
}
