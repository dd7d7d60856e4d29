package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// -selfcheck N: the benchmark's own noise check. Two sets of N runs of
// this same binary, alternating run by run so both sets see the same
// stretch of host time, every run with a seed of its own (as the driver
// does). Per workload × end-to-end metric it prints both set medians and
// quartiles, each set's spread, the disagreement between the medians and
// the bound, for the frozen correction and — so the calibration has to
// earn its place — for the raw numbers and the memory/ALU blend on the
// very same runs. It fails if a disagreement or a spread exceeds its
// bound.

type checkRun struct {
	detail detail
	report report
}

func execRun(w *workload, seed uint64, seconds int) (*checkRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	var run checkRun
	var last, prev []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		prev, last = last, append([]byte(nil), sc.Bytes()...)
	}
	if err := json.Unmarshal(prev, &run.detail); err != nil {
		return nil, fmt.Errorf("%s seed %d: detail line: %w", w.name, seed, err)
	}
	if err := json.Unmarshal(last, &run.report); err != nil {
		return nil, fmt.Errorf("%s seed %d: report line: %w", w.name, seed, err)
	}
	if !run.report.Correct || run.report.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: run not correct (%d failed)", w.name, seed, run.report.Failed)
	}
	return &run, nil
}

// selfcheckRuns keeps every run's detail line, for analysis beyond the
// table.
const selfcheckRuns = ".bench_build/selfcheck-runs.jsonl"

func runSelfcheck(n, seconds int, out io.Writer) error {
	sets := [2]map[string][]*checkRun{{}, {}}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	keep, err := os.Create(selfcheckRuns)
	if err != nil {
		return err
	}
	defer keep.Close()
	seed := uint64(1)
	for i := 0; i < n; i++ {
		for s := range sets {
			for wi := range workloads {
				w := &workloads[wi]
				run, err := execRun(w, seed, seconds)
				if err != nil {
					return err
				}
				sets[s][w.name] = append(sets[s][w.name], run)
				if err := writeJSONLine(keep, run.detail); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s seed %d done\n", i+1, n, 'A'+s, w.name, seed)
			}
			seed++
		}
	}
	return writeSelfcheck(out, n, seconds, sets)
}

func column(runs []*checkRun, metric, variant string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.detail.Detail[metric][variant]
	}
	return v
}

func writeSelfcheck(out io.Writer, n, seconds int, sets [2]map[string][]*checkRun) error {
	fmt.Fprintf(out, "## dtaperf -selfcheck %d (-seconds %d)\n\n", n, seconds)
	fmt.Fprintf(out, "Two alternating sets (A, B) of %d runs per workload, every run with its own seed. ", n)
	fmt.Fprintf(out, "spread = (Q3 − Q1) / median as `statistics.quantiles(v, n=4)` gives them; ")
	fmt.Fprintf(out, "disagreement = |median B − median A| / median A. The last two columns are the same runs without the correction and corrected by the memory kernel alone; the main columns use the frozen equal-weight memory/ALU blend.\n\n")
	bad := 0
	for wi := range workloads {
		w := &workloads[wi]
		fmt.Fprintf(out, "### %s\n\n", w.name)
		fmt.Fprintf(out, "| metric | median A | Q1–Q3 A | median B | Q1–Q3 B | spread A | spread B | disagreement | bound | raw: spread A / B / disagreement | memory kernel alone: spread A / B / disagreement |\n")
		fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range endToEnd {
			type stat struct{ sa, sb, dis float64 }
			stats := map[string]stat{}
			var ma, mb, a1, a3, b1, b3 float64
			for _, variant := range []string{"corrected", "raw", "mem"} {
				a, b := column(sets[0][w.name], m.name, variant), column(sets[1][w.name], m.name, variant)
				st := stat{spread(a), spread(b), math.Abs(median(b)-median(a)) / math.Abs(median(a))}
				stats[variant] = st
				if variant == "corrected" {
					ma, mb = median(a), median(b)
					a1, a3 = quartiles(a)
					b1, b3 = quartiles(b)
				}
			}
			st := stats["corrected"]
			flag := ""
			if st.dis > m.bound || (m.name != "setup_s" && (st.sa > m.bound || st.sb > m.bound)) {
				flag = " **over**"
				bad++
			}
			fmt.Fprintf(out, "| %s | %.6g | %.6g–%.6g | %.6g | %.6g–%.6g | %.4f | %.4f | %.4f%s | %.2f | %.4f / %.4f / %.4f | %.4f / %.4f / %.4f |\n",
				m.name, ma, a1, a3, mb, b1, b3, st.sa, st.sb, st.dis, flag, m.bound,
				stats["raw"].sa, stats["raw"].sb, stats["raw"].dis, stats["mem"].sa, stats["mem"].sb, stats["mem"].dis)
		}
		fmt.Fprintln(out)
	}
	if bad > 0 {
		fmt.Fprintf(out, "RESULT: %d workload × metric pairs over their bound\n", bad)
		return fmt.Errorf("selfcheck: %d workload × metric pairs over their bound", bad)
	}
	fmt.Fprintf(out, "RESULT: every workload × metric pair within its bound\n")
	return nil
}
