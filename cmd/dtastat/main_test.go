package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
)

// TestBaseURL: an address without a scheme is served over http; one
// with a scheme is used as given, never prefixed a second time.
func TestBaseURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"127.0.0.1:9090", "http://127.0.0.1:9090"},
		{"localhost:9321", "http://localhost:9321"},
		{"[::1]:9090", "http://[::1]:9090"},
		{"http://h:9090", "http://h:9090"},
		{"https://h:9090", "https://h:9090"},
		{"HTTPS://h:443", "HTTPS://h:443"},
	} {
		if got := baseURL(tc.addr); got != tc.want {
			t.Errorf("baseURL(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// followServer serves a real journal and tracer under the cursor
// endpoints, as dta's ObsMux does.
func followServer(t *testing.T, j *journal.Journal, tr *trace.Tracer) string {
	mux := http.NewServeMux()
	mux.Handle("/debug/events", journal.Handler(j))
	mux.Handle("/debug/traces", trace.Handler(tr))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestFollowEvents: across two polls every event prints exactly once,
// and a lapped ring prints the overwrite line with the exact count.
func TestFollowEvents(t *testing.T) {
	j := journal.New(8)
	f := newFollower[journal.Record](followServer(t, j, nil), "events")
	var out strings.Builder
	var lastCause uint64
	poll := func() {
		recs, missed, err := f.poll()
		if err != nil {
			t.Fatal(err)
		}
		printEvents(&out, recs, missed, &lastCause)
	}
	for i := 1; i <= 3; i++ {
		j.Publish(journal.CompHA, journal.EvReadRepair, journal.SevInfo, 1, 0, uint64(i), uint64(100+i), 0)
	}
	poll()
	for i := 4; i <= 5; i++ {
		j.Publish(journal.CompHA, journal.EvReadRepair, journal.SevInfo, 1, 0, uint64(i), uint64(100+i), 0)
	}
	poll()
	poll() // nothing new: prints nothing
	for i := 1; i <= 5; i++ {
		if n := strings.Count(out.String(), fmt.Sprintf("cumulative=%d\n", 100+i)); n != 1 {
			t.Errorf("event %d printed %d times:\n%s", i, n, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 5 {
		t.Errorf("%d lines for 5 events:\n%s", n, out.String())
	}

	out.Reset()
	for i := 0; i < 20; i++ { // lap the 8-slot ring
		j.Publish(journal.CompHA, journal.EvReadRepair, journal.SevInfo, 1, 0, 0, 0, 0)
	}
	poll()
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if lines[0] != "... 12 events lost to ring overwrite ..." || len(lines) != 1+8 {
		t.Errorf("lapped poll printed:\n%s", out.String())
	}
}

// TestFollowTraces: across two polls every trace's waterfall prints
// exactly once, its stages in time order.
func TestFollowTraces(t *testing.T) {
	tr := trace.New(trace.Config{Ring: 8, InFlight: 4, CandidateShift: 1, HeadShift: 20})
	var s trace.Sampler
	var ids []uint64
	publish := func(n int) {
		for n += len(ids); len(ids) < n; {
			h := tr.Begin(&s)
			if !h.Valid() {
				continue
			}
			h.StampAt(trace.StSubmit, 1000)
			h.StampAt(trace.StEmit, 1500) // before wal_ring in time, after it in enum order
			h.StampAt(trace.StWALRing, 3000)
			h.StampAt(trace.StTranslate, 4000)
			h.Flag(trace.FStall) // tail-kept: every candidate publishes
			ids = append(ids, h.ID())
			h.Finish()
		}
	}
	f := newFollower[trace.JSON](followServer(t, nil, tr), "traces")
	agg := newStageAgg()
	var out strings.Builder
	poll := func() {
		recs, missed, err := f.poll()
		if err != nil {
			t.Fatal(err)
		}
		printTraces(&out, recs, missed, agg)
	}
	publish(2)
	poll()
	publish(3)
	poll()
	for _, id := range ids {
		if n := strings.Count(out.String(), fmt.Sprintf("trace %d  seq", id)); n != 1 {
			t.Errorf("trace %d printed %d times:\n%s", id, n, out.String())
		}
	}
	if n := strings.Count(out.String(), "submit→emit 0.5µs"); n != 5 || len(ids) != 5 {
		t.Errorf("want 5 traces with submit→emit segments in time order, got %d of %d:\n%s", n, len(ids), out.String())
	}
}
