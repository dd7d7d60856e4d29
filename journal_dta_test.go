package dta

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dta/internal/obs/journal"
)

// failedRuleNames extracts which rules failed a health evaluation.
func failedRuleNames(st HealthStatus) map[string]bool {
	failed := map[string]bool{}
	for _, r := range st.Rules {
		if !r.Healthy {
			failed[r.Name] = true
		}
	}
	return failed
}

// TestHAFailoverChainJournal is the end-to-end flight-recorder
// contract: a kill/restore/rebalance cycle must journal the whole
// failure arc — SetDown, WAL fence, epoch bump, SetUp, resync,
// post-resync checkpoint — under ONE causality ID, and the health
// verdict must flip unhealthy during the outage and back to healthy
// once Rebalance heals the cluster.
func TestHAFailoverChainJournal(t *testing.T) {
	c, err := NewHACluster(3, 2, haOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WithWAL(t.TempDir(), WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	he := c.HealthEval()
	if st := he.Eval(); !st.Healthy {
		t.Fatalf("fresh cluster unhealthy: %+v", st.Rules)
	}

	rep := c.Reporter(1)
	write := func(from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 50)

	const victim = 1
	if err := c.SetDown(victim); err != nil {
		t.Fatal(err)
	}
	write(50, 100) // degraded: fan-outs skip the dead member
	st := he.Eval()
	if st.Healthy {
		t.Fatal("verdict healthy with a replica down")
	}
	if failed := failedRuleNames(st); !failed["down_replicas"] {
		t.Fatalf("down_replicas did not fail: %v", failed)
	}

	if err := c.SetUp(victim); err != nil {
		t.Fatal(err)
	}
	// Close the outage window: down is cleared, only the degradation it
	// cost remains in this delta.
	if failed := failedRuleNames(he.Eval()); failed["down_replicas"] {
		t.Fatalf("down_replicas still failing after SetUp: %v", failed)
	}

	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if st := he.Eval(); !st.Healthy {
		t.Fatalf("verdict not healthy after Rebalance: %+v", st.Rules)
	}

	// The journal must link the whole arc under the SetDown's cause.
	events, _, missed := c.Journal().Since(0, nil)
	if missed != 0 {
		t.Fatalf("ring overwrote %d events in a tiny scenario", missed)
	}
	var cause uint64
	for _, e := range events {
		if e.Type == journal.EvSetDown {
			if e.Collector != victim {
				t.Fatalf("set-down for collector %d, want %d", e.Collector, victim)
			}
			cause = e.Cause
		}
	}
	if cause == 0 {
		t.Fatal("no set-down event journaled, or it carries no cause")
	}
	var chain []journal.Type
	for _, e := range events {
		if e.Cause == cause {
			chain = append(chain, e.Type)
		}
	}
	want := []journal.Type{
		journal.EvSetDown, journal.EvWALFence, journal.EvEpochBump,
		journal.EvSetUp, journal.EvResyncStart, journal.EvResyncEnd,
		journal.EvCheckpoint,
	}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %v, want %v (full chain %v)", i, chain[i], want[i], chain)
		}
	}

	// The full observability surface serves both new endpoints.
	mux := c.ObsMux()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	var payload struct {
		Last   uint64           `json:"last"`
		Events []journal.Record `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil || rec.Code != 200 {
		t.Fatalf("/debug/events: code %d err %v", rec.Code, err)
	}
	if payload.Last == 0 || len(payload.Events) == 0 {
		t.Fatalf("/debug/events empty after a failover: %+v", payload)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var hst HealthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &hst); err != nil || rec.Code != 200 || !hst.Healthy {
		t.Fatalf("/healthz after heal: code %d healthy %v err %v", rec.Code, hst.Healthy, err)
	}
}

// TestRecoveryDumpsJournal pins the post-mortem artifact: a crash
// recovery leaves events.jsonl in the WAL directory, its records
// forming one causal chain from recovery-start to the replay extent.
func TestRecoveryDumpsJournal(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WithWAL(dir, WALPolicy{}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	for i := uint64(0); i < 50; i++ {
		if err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Recover(dir); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, journal.DumpFileName)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("recovery left no journal dump: %v", err)
	}
	recs, err := journal.ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	var start, extent *journal.Record
	for i := range recs {
		switch recs[i].Type {
		case "recovery-start":
			start = &recs[i]
		case "replay-extent":
			extent = &recs[i]
		}
	}
	if start == nil || extent == nil {
		t.Fatalf("dump missing the recovery chain: %+v", recs)
	}
	if start.Cause == 0 || start.Cause != extent.Cause {
		t.Fatalf("recovery events not causally linked: start %d extent %d", start.Cause, extent.Cause)
	}
	if extent.Args[0] == 0 {
		t.Fatalf("replay extent reports no replayed LSN: %+v", extent)
	}
}

// TestJournalDisabledTelemetry pins the off switch: no journal, a
// healthy-by-definition evaluator, and still well-formed endpoints.
func TestJournalDisabledTelemetry(t *testing.T) {
	o := fullOptions()
	o.DisableTelemetry = true
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Journal() != nil {
		t.Fatal("DisableTelemetry still built a journal")
	}
	if st := sys.HealthEval().Eval(); !st.Healthy {
		t.Fatalf("telemetry-off evaluator unhealthy: %+v", st)
	}
	mux := sys.ObsMux()
	for _, path := range []string{"/debug/events", "/healthz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s served %d with telemetry off", path, rec.Code)
		}
		var v map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("%s not JSON: %v", path, err)
		}
	}
}
