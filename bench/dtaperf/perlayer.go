package main

// tracedCycles is the length of the traced pass: tracing alternates on
// and off cycle by cycle, so half of them are traced.
const tracedCycles = 24

// fanoutCycles is the length of the R=1 comparison run behind
// ha.fanout_ns_per_replica.
const fanoutCycles = 8

func share(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayerValues assembles the per-layer metrics of a traced pass: the
// isolated suite's figures, deltas of the public counters over the
// cycles, and what the spans say.
func (r *runner) perLayerValues(ls *layerSuite) (map[string]float64, *traceFile) {
	res := &r.res
	v := map[string]float64{}
	for name, x := range ls.values {
		v[name] = x
	}

	// Spans.
	spans := append([]span(nil), r.prod.spans...)
	for _, k := range r.workers {
		spans = append(spans, k.spans...)
	}
	rows := selfTimes(spans)
	overhead := 0.0
	if u := median(res.rps.corrected(corrFrozen)); u > 0 {
		overhead = 1 - median(res.rpsTraced.corrected(corrFrozen))/u
	}
	tf := &traceFile{Workload: r.w.name, Seed: r.o.seed, SampleEvery: sampleEvery, OverheadShare: overhead, SelfTime: rows, Spans: spans}

	v["dta.submit_ns"] = spanP50Ns(rows, "dta.submit")
	v["dta.barrier_us"] = median(res.barrierUs.corrected(corrFrozen))
	v["dta.ack_p99_us"] = percentile(res.ackUsAll.corrected(corrFrozen), 99)
	v["dta.query_p99_ns"] = percentile(res.queryNsAll.corrected(corrFrozen), 99)
	v["dta.absent_share"] = share(r.tally.n[inexact], r.tally.total())
	v["dta.wrong_share"] = share(r.tally.n[wrong], r.tally.total())
	v["dta.allocs_per_kreport"] = median(res.allocsPerK)

	// Counter deltas over the cycles.
	b, a := &res.before, &res.after
	reports := a.reports - b.reports
	v["translator.rdma_msgs_per_report"] = share(a.rdmaMsgs-b.rdmaMsgs, reports)
	v["translator.pc_emits_per_postcard"] = share(a.pcEmits-b.pcEmits, a.pc-b.pc)
	kiReports := uint64(0)
	for _, k := range r.w.tape.mix {
		if k == opKI {
			kiReports += reports / uint64(len(r.w.tape.mix))
		}
	}
	v["translator.ki_aggregated_share"] = share(a.kiAggregated-b.kiAggregated, kiReports)
	v["engine.queue_stalls"] = float64(a.eng.Stalls - b.eng.Stalls)
	v["engine.reports_per_batch"] = share(a.eng.Processed-b.eng.Processed, a.eng.Batches-b.eng.Batches)
	v["engine.worker_busy_share"] = median(res.busyShare)
	if r.w.wal {
		appends := a.wal.Appends - b.wal.Appends
		v["wal.bytes_per_report"] = share(a.wal.Bytes-b.wal.Bytes, appends)
		v["wal.fsyncs_per_kreport"] = 1000 * share(a.wal.Syncs-b.wal.Syncs, appends)
		v["wal.ring_stalls"] = float64(a.wal.RingStalls - b.wal.RingStalls)
		delta := a.obs.Delta(b.obs)
		flushNs, _ := histSum(delta, "dta_wal_flush_ns")
		v["wal.flush_ns_per_report"] = share(flushNs, appends)
		v["wal.append_ns"] = spanP50Ns(rows, "wal.append")
		v["wal.checkpoint_s"] = median(res.checkpointS)
	} else {
		// The WAL is idle on this workload: its in-situ rows read zero,
		// which is the prediction a WAL-only change is checked against.
		for _, name := range []string{"wal.append_ns", "wal.bytes_per_report"} {
			v[name] = 0
		}
	}
	v["collector.emit_ns"] = spanP50Ns(rows, "collector.emit")
	if r.w.ha {
		v["ha.lookup_ns"] = mean(res.queryNsAll.corrected(corrFrozen))
		v["ha.read_repairs"] = float64(a.ha.ReadRepairs - b.ha.ReadRepairs)
	}

	memNs, aluNs := kernelSamples(res.host)
	v["host.mem_ns"], v["host.alu_ns"] = median(memNs), median(aluNs)
	v["bench.gen_ns"] = res.genNs
	v["bench.trace_overhead_share"] = overhead
	cpu := median(res.cpuNs.corrected(corrFrozen))
	if cpu > 0 {
		v["bench.budget_gap_share"] = 1 - ls.budget(r.w, v["translator.rdma_msgs_per_report"])/cpu
	}
	return v, tf
}

// fanoutNsPerReplica is (cpu_ns_per_report at R=3 − at R=1) ÷ 2, both
// from untraced cycles, the R=1 figure from a short run of its own.
func fanoutNsPerReplica(r *runner) (float64, error) {
	w1 := *r.w
	w1.replicasOverride = 1
	r1, err := runWorkload(runOpts{w: &w1, seed: r.o.seed, seconds: r.o.seconds, cycles: fanoutCycles, setupOps: 1 << 16, sliceOps: r.o.sliceOps})
	if err != nil {
		return 0, err
	}
	r3 := median(r.res.cpuNs.corrected(corrFrozen))
	return (r3 - median(r1.res.cpuNs.corrected(corrFrozen))) / float64(haReplicas-1), nil
}
