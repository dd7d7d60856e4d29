package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// These tests are deterministic: they assert counts, arithmetic and
// names, never a wall-clock figure.

func TestTapeRepeatsPerSeedAndDiffersAcrossSeeds(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := genTape(w.tape, 7), genTape(w.tape, 7), genTape(w.tape, 8)
		if !reflect.DeepEqual(a.ops, b.ops) {
			t.Errorf("%s: same seed gave different tapes", w.name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: different seeds gave the same tape", w.name)
		}
		if len(a.ops)%a.frame != 0 || w.epoch%a.frame != 0 {
			t.Errorf("%s: tape %d / epoch %d not whole frames of %d", w.name, len(a.ops), w.epoch, a.frame)
		}
		if w.readEvery > 0 && a.frame%w.readEvery != 0 {
			t.Errorf("%s: frame %d not a multiple of readEvery %d", w.name, a.frame, w.readEvery)
		}
	}
}

func TestFramesHoldWholePathsAndBatches(t *testing.T) {
	w := findWorkload("mixed_durable")
	tp := genTape(w.tape, 3)
	for f := 0; f < 64; f++ {
		hops := map[uint32]int{}
		lists := map[uint8]int{}
		for _, o := range tp.ops[f*tp.frame : (f+1)*tp.frame] {
			switch o.kind {
			case opPC:
				hops[o.key] |= 1 << o.aux
			case opAP:
				lists[o.aux]++
			}
		}
		if len(hops) != flowsInFlight {
			t.Fatalf("frame %d: %d flows, want %d", f, len(hops), flowsInFlight)
		}
		for flow, mask := range hops {
			if mask != 1<<pathHops-1 {
				t.Fatalf("frame %d flow %d: hop mask %b", f, flow, mask)
			}
		}
		if len(lists) != apListsPerFrame {
			t.Fatalf("frame %d: %d lists, want %d", f, len(lists), apListsPerFrame)
		}
		for l, n := range lists {
			if n != apBatch {
				t.Fatalf("frame %d list %d: %d entries, want one batch of %d", f, l, n, apBatch)
			}
		}
	}
}

func TestModelClassification(t *testing.T) {
	tp := &tape{ops: []op{
		{kind: opKW, key: 5, val: 9},
		{kind: opKI, key: 6, val: 3},
		{kind: opKI, key: 6, val: 2},
		{kind: opPC, key: 0, aux: 0}, {kind: opPC, key: 0, aux: 1}, {kind: opPC, key: 0, aux: 2},
		{kind: opPC, key: 0, aux: 3}, {kind: opPC, key: 0, aux: 4},
		{kind: opAP, aux: 2}, {kind: opAP, aux: 2},
	}, flowsPerLap: 1}
	m := newModel()
	m.apply(tp, 0, 0, len(tp.ops))

	v := kwValue(tp.ops[0], 0)
	val := []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	stale := []byte{0, 0, 0, 1}
	path := func(n int) []uint32 {
		p := make([]uint32, n)
		for h := range p {
			p[h] = pathValue(0, h)
		}
		return p
	}
	badPath := path(pathHops)
	badPath[2]++
	for _, c := range []struct {
		name string
		got  class
		want class
	}{
		{"kw exact", m.classifyValue(5, val, true), correct},
		{"kw absent", m.classifyValue(5, nil, false), inexact},
		{"kw stale", m.classifyValue(5, stale, true), wrong},
		{"kw never written, absent", m.classifyValue(7, nil, false), correct},
		{"kw never written, found", m.classifyValue(7, val, true), wrong},
		{"ki exact", m.classifyCount(6, 5), correct},
		{"ki over", m.classifyCount(6, 6), inexact},
		{"ki under", m.classifyCount(6, 4), wrong},
		{"pc exact", m.classifyPath(0, path(pathHops), true), correct},
		{"pc prefix", m.classifyPath(0, path(3), true), inexact},
		{"pc absent", m.classifyPath(0, nil, false), inexact},
		{"pc wrong hop", m.classifyPath(0, badPath, true), wrong},
		{"pc unreported flow found", m.classifyPath(1, path(pathHops), true), wrong},
		{"pc unreported flow absent", m.classifyPath(1, nil, false), correct},
	} {
		if c.got != c.want {
			t.Errorf("%s: class %d, want %d", c.name, c.got, c.want)
		}
	}

	var buf [8]byte
	if m.ap[2] != 2 {
		t.Fatalf("append count %d, want 2", m.ap[2])
	}
	if got := m.classifyEntry(2, apEntry(&buf, 2, 0)); got != correct {
		t.Errorf("ap first entry: class %d", got)
	}
	if got := m.classifyEntry(2, apEntry(&buf, 2, 5)); got != wrong {
		t.Errorf("ap out-of-order entry: class %d", got)
	}
}

func TestStatsArithmetic(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); got != 10 {
		t.Errorf("p99 of 10 = %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50); got != 5 {
		t.Errorf("p50 of 10 = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9], n=4) == [1.0, 3.5, 6.0]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9})
	if !near(q1, 1) || !near(q3, 6) {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v", got)
	}
}

func TestCorrectionArithmetic(t *testing.T) {
	slow := hostSpeed{memNs: 2 * refMemNs, aluNs: refAluNs}
	ref := hostSpeed{memNs: refMemNs, aluNs: refAluNs}
	if f := ref.slowdown(); math.Abs(f-1) > 1e-12 {
		t.Fatalf("reference host slowdown = %v", f)
	}
	want := memWeight*2 + (1 - memWeight)
	if f := slow.slowdown(); math.Abs(f-want) > 1e-12 {
		t.Fatalf("slowdown = %v, want %v", f, want)
	}
	dur := series{}
	dur.add(100, ref)
	dur.add(100*want, slow) // the same work on the slow host
	for _, v := range dur.corrected(corrFrozen) {
		if math.Abs(v-100) > 1e-9 {
			t.Errorf("corrected duration %v, want 100", v)
		}
	}
	rate := series{rate: true}
	rate.add(1000, ref)
	rate.add(1000/want, slow)
	for _, v := range rate.corrected(corrFrozen) {
		if math.Abs(v-1000) > 1e-9 {
			t.Errorf("corrected rate %v, want 1000", v)
		}
	}
	if got := dur.corrected(corrNone); got[1] != 100*want {
		t.Errorf("raw series changed: %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "cycle", ID: 1, Parent: 0, Track: "producer", Start: 0, End: 1000, Weight: 1},
		{Name: "slice", ID: 2, Parent: 1, Track: "producer", Start: 100, End: 700, Weight: 1},
		{Name: "submit", ID: 3, Parent: 2, Track: "producer", Start: 200, End: 202, Weight: 64},
		{Name: "emit", ID: 4, Parent: 2, Track: "worker-0", Start: 300, End: 301, Weight: 64},
	}
	rows := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	if r := rows["cycle"]; r.SelfMs != 400e-6 {
		t.Errorf("cycle self = %v ms", r.SelfMs)
	}
	// The worker span runs in parallel: it does not reduce the slice.
	if r := rows["slice"]; math.Abs(r.SelfMs-(600-128)*1e-6) > 1e-12 {
		t.Errorf("slice self = %v ms", r.SelfMs)
	}
	if r := rows["submit"]; r.Calls != 64 || r.MeanNs != 2 || r.P50Ns != 2 {
		t.Errorf("submit calls %d mean %v", r.Calls, r.MeanNs)
	}
	if r := rows["emit"]; r.Track != "worker" || r.MeanNs != 1 {
		t.Errorf("emit row %+v", r)
	}
}

// tiny runs one short pass of a workload.
func tiny(t *testing.T, w *workload, seed uint64, traced bool) *runner {
	t.Helper()
	t.Chdir(t.TempDir())
	tp := genTape(w.tape, seed)
	r, err := runWorkload(runOpts{w: w, seed: seed, seconds: 1, traced: traced, cycles: 2, sliceOps: 8 * tp.frame, setupOps: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCountsRepeatExactly(t *testing.T) {
	empty := &layerSuite{values: map[string]float64{}}
	// wal.bytes_per_report is deliberately absent: staged records carry
	// stale sibling sub-header bytes from recycled queue slots into the
	// log, so its size wanders by a fraction of a percent (README).
	counts := []string{"translator.rdma_msgs_per_report", "translator.pc_emits_per_postcard",
		"translator.ki_aggregated_share", "dta.absent_share", "dta.wrong_share"}
	for i := range workloads {
		w := &workloads[i]
		a, b := tiny(t, w, 5, true), tiny(t, w, 5, true)
		if a.failed() != 0 || !a.correct() {
			t.Errorf("%s: %d failed operations (wrong %d, refused %d, changed by restart %d)", w.name, a.failed(), a.tally.n[wrong], a.submitErrs, a.recheckBad)
		}
		if a.attempted() != b.attempted() || a.failed() != b.failed() || a.tally != b.tally {
			t.Errorf("%s: counts differ between two runs of one seed: %d/%d %+v vs %d/%d %+v",
				w.name, a.attempted(), a.failed(), a.tally, b.attempted(), b.failed(), b.tally)
		}
		va, tf := a.perLayerValues(empty)
		vb, _ := b.perLayerValues(empty)
		for _, name := range counts {
			if va[name] != vb[name] {
				t.Errorf("%s: %s = %v then %v", w.name, name, va[name], vb[name])
			}
		}
		ea, eb := a.endToEndValues(corrFrozen), b.endToEndValues(corrFrozen)
		if ea["verified_share"] != eb["verified_share"] || ea["verified_share"] <= 0.5 {
			t.Errorf("%s: verified_share %v then %v", w.name, ea["verified_share"], eb["verified_share"])
		}
		if w.wal && va["wal.bytes_per_report"] == 0 {
			t.Errorf("%s: no WAL bytes counted", w.name)
		}
		ids := map[int32]bool{0: true}
		for _, s := range tf.Spans {
			ids[s.ID] = true
		}
		for _, s := range tf.Spans {
			if !ids[s.Parent] || s.End < s.Start || s.Name == "" {
				t.Fatalf("%s: span %+v has no parent in the file or no extent", w.name, s)
			}
		}
		if len(tf.Spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.name)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("bad or repeated name/unit %q %q", n, u)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		check(w.Name, "x")
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q/%q vs %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		check(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.bound || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		check(m.Name, m.Unit)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", bj.RunSeconds, bj.Paths)
	}
}

func TestReportCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	r := tiny(t, findWorkload("kw_ingest"), 2, false)
	rep := r.report(r.endToEndValues(corrFrozen), endToEnd)
	if len(rep.Metrics) != len(endToEnd) || rep.Attempted < 1 || rep.Failed != 0 || !rep.Correct {
		t.Fatalf("report %+v", rep)
	}
	for _, m := range endToEnd {
		if v, ok := rep.Metrics[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("metric %s: %+v", m.name, v)
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil || len(keys) != 4 {
		t.Errorf("report line keys: %v %v", keys, err)
	}
}
