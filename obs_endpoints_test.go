package dta_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dta"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
)

// obsSystem builds a small System, with or without telemetry.
func obsSystem(t *testing.T, disable bool) *dta.System {
	t.Helper()
	sys, err := dta.New(dta.Options{
		KeyWrite:         &dta.KeyWriteOptions{Slots: 1 << 10, DataSize: 4},
		DisableTelemetry: disable,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// serve runs one GET against mux.
func serve(mux http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// TestObsIndexListsMounted: the / page of the deployment mux lists
// every path it mounts, and every listed path answers (200, or 503
// from an unhealthy /healthz).
func TestObsIndexListsMounted(t *testing.T) {
	mux := obsSystem(t, false).ObsMux()
	idx := serve(mux, "/")
	if idx.Code != http.StatusOK {
		t.Fatalf("/: %d", idx.Code)
	}
	var listed []string
	for _, line := range strings.Split(idx.Body.String(), "\n") {
		if strings.HasPrefix(line, "/") {
			listed = append(listed, line)
		}
	}
	for _, path := range listed {
		if code := serve(mux, path).Code; code != http.StatusOK && !(path == "/healthz" && code == http.StatusServiceUnavailable) {
			t.Errorf("listed %s answers %d", path, code)
		}
	}
	// A path is mounted when the mux routes it to a pattern other than
	// the index's catch-all; it is listed when that pattern is, or lies
	// in a listed subtree (the pprof index links its sub-handlers).
	isListed := func(pattern string) bool {
		for _, l := range listed {
			if pattern == l || strings.HasSuffix(l, "/") && strings.HasPrefix(pattern, l) {
				return true
			}
		}
		return false
	}
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/", "/debug/pprof/heap",
		"/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace",
		"/debug/events", "/debug/traces", "/healthz"} {
		_, pattern := mux.Handler(httptest.NewRequest("GET", path, nil))
		if pattern == "/" || !isListed(pattern) {
			t.Errorf("%s is mounted (pattern %q) but not listed in %v", path, pattern, listed)
		}
	}
	if code := serve(mux, "/no-such-page").Code; code != http.StatusNotFound {
		t.Errorf("unmounted path answers %d", code)
	}
}

// TestCursorContract holds /debug/events and /debug/traces to one
// ?since= contract: a cursor that is not a uint64 is a 400 with the
// same body from both, a caught-up cursor returns an empty array and
// the same last, and with telemetry off both serve a well-formed
// envelope with [] (not null).
func TestCursorContract(t *testing.T) {
	sys := obsSystem(t, false)
	sys.Journal().Publish(journal.CompHA, journal.EvCheckpoint, journal.SevInfo, -1, 0, 1, 0, 0)
	var s trace.Sampler
	for published := false; !published; {
		if h := sys.Tracer().Begin(&s); h.Valid() {
			h.Stamp(trace.StSubmit)
			h.Flag(trace.FStall) // tail-kept
			h.Finish()
			published = true
		}
	}
	on, off := sys.ObsMux(), obsSystem(t, true).ObsMux()

	envelope := func(mux http.Handler, url string) map[string]json.RawMessage {
		t.Helper()
		rec := serve(mux, url)
		var env map[string]json.RawMessage
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", url, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: %v: %s", url, err, rec.Body)
		}
		for _, k := range []string{"last", "missed", "dropped"} {
			if _, ok := env[k]; !ok {
				t.Fatalf("%s: no %q in %s", url, k, rec.Body)
			}
		}
		return env
	}
	badBodies := map[string]string{}
	for _, ep := range []struct{ path, key string }{{"/debug/events", "events"}, {"/debug/traces", "traces"}} {
		env := envelope(on, ep.path)
		last := string(env["last"])
		if last == "0" || len(env[ep.key]) < 3 {
			t.Fatalf("%s: nothing published: %s", ep.path, env[ep.key])
		}
		caught := envelope(on, ep.path+"?since="+last)
		if string(caught[ep.key]) != "[]" || string(caught["last"]) != last {
			t.Errorf("%s?since=%s: %s = %s, last %s", ep.path, last, ep.key, caught[ep.key], caught["last"])
		}
		for _, bad := range []string{"abc", "-1", "18446744073709551616"} {
			rec := serve(on, ep.path+"?since="+bad)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s?since=%s: %d, want 400", ep.path, bad, rec.Code)
			}
			if prev, ok := badBodies[bad]; ok && prev != rec.Body.String() {
				t.Errorf("since=%s: bodies differ: %q vs %q", bad, prev, rec.Body.String())
			}
			badBodies[bad] = rec.Body.String()
		}
		nilEnv := envelope(off, ep.path)
		if string(nilEnv[ep.key]) != "[]" || string(nilEnv["last"]) != "0" {
			t.Errorf("%s with telemetry off: %s = %s, last %s", ep.path, ep.key, nilEnv[ep.key], nilEnv["last"])
		}
	}
}
