// Command dtaperf is the repository benchmark: four workloads over the
// public dta API, seven speed-corrected end-to-end metrics, a per-layer
// budget and a traced pass. See bench/README.md.
//
//	dtaperf -workload kw_ingest -seed 1 -seconds 20 -trace 0   end-to-end metrics
//	dtaperf -workload kw_ingest -seed 1 -seconds 20 -trace 1   per-layer metrics + span file
//	dtaperf -layers                                           isolated layer suite only
//	dtaperf -selfcheck 6                                      same-code noise check
//	dtaperf -all                                              every workload, both passes
//
// The last line of standard output of a -workload run is one JSON object
// {"correct","attempted","failed","metrics"}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: kw_ingest, mixed_durable, ha_r3, sync_readwrite")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same tape and the same verification sample")
		seconds      = flag.Int("seconds", 20, "measured length the run's fixed work is sized for")
		traced       = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		layers       = flag.Bool("layers", false, "run only the isolated layer suite and print the per-layer budget")
		selfcheck    = flag.Int("selfcheck", 0, "run two alternating sets of N runs per workload and compare their medians")
		all          = flag.Bool("all", false, "run every workload untraced and traced")
	)
	flag.BoolVar(&verbose, "v", false, "also print the per-cycle samples")
	flag.Parse()
	if err := dispatch(*workloadName, *seed, *seconds, *traced != 0, *layers, *selfcheck, *all); err != nil {
		fmt.Fprintln(os.Stderr, "dtaperf:", err)
		os.Exit(1)
	}
}

var verbose bool

func dispatch(name string, seed uint64, seconds int, traced, layers bool, selfcheck int, all bool) error {
	switch {
	case layers:
		return runLayersOnly(seed, os.Stdout)
	case selfcheck > 0:
		return runSelfcheck(selfcheck, seconds, os.Stdout)
	case all:
		for i := range workloads {
			for _, tr := range []bool{false, true} {
				if err := runOne(&workloads[i], seed, seconds, tr); err != nil {
					return err
				}
			}
		}
		return nil
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of kw_ingest, mixed_durable, ha_r3, sync_readwrite)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	return runOne(w, seed, seconds, traced)
}

// runOne runs one pass of one workload and prints its tables and the
// final JSON line.
func runOne(w *workload, seed uint64, seconds int, traced bool) error {
	o := runOpts{w: w, seed: seed, seconds: seconds, traced: traced}
	if traced {
		o.cycles = tracedCycles
	}
	r, err := runWorkload(o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	out := os.Stdout
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v: %d reports (%d refused or dropped), %d verifications (%d exact, %d inexact, %d wrong, %d lookup errors), %d of %d answers changed by restart, %d failed; cycles took %.2f s\n",
		w.name, seed, seconds, traced, r.submitted, r.submitErrs, r.tally.total(), r.tally.n[correct], r.tally.n[inexact], r.tally.n[wrong], r.lookupErrs, r.recheckBad, r.rechecked, r.failed(), r.res.measuredS)
	if verbose {
		r.printCycles(out)
	}
	if !traced {
		d := r.detail()
		rows := map[string][]float64{}
		for _, m := range endToEnd {
			rows[m.name] = []float64{d.Detail[m.name]["corrected"], d.Detail[m.name]["raw"]}
		}
		printTable(out, "end-to-end (median over cycles)", endToEnd, []string{"corrected", "raw"}, rows)
		fmt.Fprintf(out, "host.mem_ns %.3f  host.alu_ns %.3f (reference %.1f / %.1f, memory weight %.2f)\n",
			d.Detail["host.mem_ns"]["raw"], d.Detail["host.alu_ns"]["raw"], refMemNs, refAluNs, memWeight)
		if err := writeJSONLine(out, d); err != nil {
			return err
		}
		return writeJSONLine(out, r.report(r.endToEndValues(corrFrozen), endToEnd))
	}
	ls, err := runLayers()
	if err != nil {
		return err
	}
	values, tf := r.perLayerValues(ls)
	if w.ha {
		if values["ha.fanout_ns_per_replica"], err = fanoutNsPerReplica(r); err != nil {
			return err
		}
	}
	path := filepath.Join(".bench_build", "trace-"+w.name+".json")
	if err := writeTraceFile(path, tf); err != nil {
		return err
	}
	fmt.Fprintf(out, "untraced cycles: reports_per_s %.6g, cpu_ns_per_report %.6g; layer budget %.6g ns\n",
		median(r.res.rps.corrected(corrFrozen)), median(r.res.cpuNs.corrected(corrFrozen)), ls.budget(w, values["translator.rdma_msgs_per_report"]))
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tf.Spans), path)
	printSelfTimes(out, tf.SelfTime)
	rows := map[string][]float64{}
	for _, m := range perLayer {
		rows[m.name] = []float64{values[m.name]}
	}
	printTable(out, "per-layer", perLayer, []string{"value"}, rows)
	return writeJSONLine(out, r.report(values, perLayer))
}

// layersBudgetSeconds sizes the short kw_ingest pass -layers measures
// its budget row against.
const layersBudgetSeconds = 5

// runLayersOnly prints the isolated suite and its budget row: the
// hot-path layers summed against kw_ingest's measured cpu_ns_per_report.
// The gap is reported, not asserted.
func runLayersOnly(seed uint64, out io.Writer) error {
	ls, err := runLayers()
	if err != nil {
		return err
	}
	ls.print(out)
	w := findWorkload("kw_ingest")
	r, err := runWorkload(runOpts{w: w, seed: seed, seconds: layersBudgetSeconds})
	if err != nil {
		return err
	}
	cpu := median(r.res.cpuNs.corrected(corrFrozen))
	budget := ls.budget(w, redundancy)
	fmt.Fprintf(out, "budget: engine.queue_ns + translator.kw_ns + %d × collector.emit_ns = %.6g ns; kw_ingest cpu_ns_per_report %.6g ns; bench.budget_gap_share %.4f\n",
		redundancy, budget, cpu, 1-budget/cpu)
	return nil
}
