// Command dtabench regenerates the tables and figures of the DTA paper's
// evaluation from this repository's implementations.
//
// Usage:
//
//	dtabench                      # run everything
//	dtabench -experiment fig10    # one table/figure
//	dtabench -scale 1             # paper-scale store geometries
//	dtabench -list                # enumerate experiment IDs
//
// -cpuprofile and -mutexprofile capture pprof profiles over the run:
//
//	dtabench -experiment fig10 -cpuprofile cpu.pb.gz -mutexprofile mutex.pb.gz
//	go tool pprof -top cpu.pb.gz
//
// The repository's own performance is measured by bench/ (bash
// bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dta/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID or 'all'")
		scale      = flag.Int("scale", 64, "divide paper store sizes by this factor (1 = paper scale)")
		trials     = flag.Int("trials", 200, "Monte-Carlo trials for success-rate experiments")
		seed       = flag.Int64("seed", 1, "random seed")
		cores      = flag.Int("cores", 0, "cap cores for parallel measurements (0 = all)")
		quick      = flag.Bool("quick", false, "shrink workloads (CI mode)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run here")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the run here")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtabench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dtabench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProf != "" {
		// Sample every blocking mutex event: the question the profile
		// answers is "is there contention AT ALL", so no sampling bias.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(*mutexProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dtabench:", err)
				return
			}
			defer f.Close()
			pprof.Lookup("mutex").WriteTo(f, 0)
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	r := experiments.Runner{P: experiments.Params{
		Scale:    *scale,
		Trials:   *trials,
		Seed:     *seed,
		MaxCores: *cores,
		Quick:    *quick,
	}}

	ids := experiments.IDs()
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		tbl, err := r.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtabench:", err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("  [%s in %.1fs]\n\n", id, time.Since(t0).Seconds())
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
}
