package translator

import (
	"testing"

	"dta/internal/collector"
	"dta/internal/obs"
	"dta/internal/obs/trace"
	"dta/internal/wire"
)

// TestTranslatorSpansFollowTraces pins the one sampling decision per
// report: the translator's latency histograms time exactly the records
// whose chunk carries a valid trace handle — one craft span per traced
// record, one emit span per emit operation of a traced record — and
// nothing for an untraced chunk, however long.
func TestTranslatorSpansFollowTraces(t *testing.T) {
	ccfg, tcfg := fullConfig() // Append batch 4: a lone append emits nothing
	host, err := collector.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr, err := NewScoped(tcfg, host.Listener(), reg.Scope())
	if err != nil {
		t.Fatal(err)
	}
	tr.Doorbell = host.Doorbell(tr.SendQueue())
	counts := func() (report, emit uint64, exemplars []uint64) {
		s := reg.Snapshot()
		r, e := s.Find("dta_translator_report_ns"), s.Find("dta_rdma_emit_ns")
		if r == nil || e == nil || r.Kind != obs.KindHistogram || e.Kind != obs.KindHistogram {
			t.Fatal("translator latency histograms not registered")
		}
		for _, v := range []*obs.Value{r, e} {
			for _, ex := range v.Exemplars {
				exemplars = append(exemplars, ex.TraceID)
			}
		}
		return r.Count, e.Count, exemplars
	}

	// Key-Writes and Key-Increments (one emit operation each), across a
	// window boundary; untraced, with no handles and with invalid ones.
	chunk := func(n int, base uint64) []wire.StagedReport {
		recs := make([]wire.StagedReport, n)
		for i := range recs {
			k := base + uint64(i)
			rep := wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
				KeyWrite: wire.KeyWrite{Redundancy: 2, Key: key(k)}, Data: []byte{byte(k), 2, 3, 4}}
			if i%2 == 1 {
				rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
					KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: key(k), Delta: 1}}
			}
			recs[i].Stage(&rep)
		}
		return recs
	}
	if _, err := tr.ProcessStagedBatch(chunk(200, 0), wire.ChunkPlan{}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ProcessStagedBatch(chunk(200, 1000), wire.ChunkPlan{}, make([]trace.Handle, 200), 0); err != nil {
		t.Fatal(err)
	}
	if r, e, _ := counts(); r != 0 || e != 0 {
		t.Fatalf("untraced chunks timed %d reports and %d emits, want 0 and 0", r, e)
	}

	// Traced: five records of a prefix that also holds invalid handles;
	// record 36 is an Append that only stashes, so it emits nothing.
	recs := chunk(40, 2000)
	ap := wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: 1}, Data: []byte{1, 2, 3, 4}}
	recs[36].Stage(&ap)
	tracer := trace.New(trace.Config{})
	trcs := make([]trace.Handle, 37)
	ids := map[uint64]bool{}
	for _, i := range []int{0, 5, 31, 32, 36} {
		trcs[i] = tracer.BeginCandidate()
		ids[trcs[i].ID()] = true
	}
	if _, err := tr.ProcessStagedBatch(recs, wire.ChunkPlan{}, trcs, 0); err != nil {
		t.Fatal(err)
	}
	r, e, exemplars := counts()
	if r != 5 || e != 4 {
		t.Fatalf("traced chunk timed %d reports and %d emits, want 5 and 4", r, e)
	}
	for _, id := range exemplars {
		if !ids[id] {
			t.Fatalf("exemplar trace %d is not one of the chunk's traces", id)
		}
	}
	for _, h := range trcs {
		h.Finish()
	}
}
