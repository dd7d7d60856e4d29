package dta_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dta"
	"dta/internal/obs/trace"
)

// httpGetJSON fetches url and decodes the body as a JSON object.
func httpGetJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return m
}

// TestTraceFsyncAttribution is the trace pipeline's acceptance scenario:
// a WAL-backed HA cluster under a slow-disk chaos fault must publish at
// least one tail-retained trace whose per-stage breakdown attributes the
// latency to the fsync stage — the wal_write→fsync segment is the
// largest gap in the trace. The sync reporter path keeps the queueless
// stages at nanosecond scale, so the injected fsync latency is the only
// plausible dominant; if attribution ever points elsewhere the stamps
// are being taken at the wrong spots.
func TestTraceFsyncAttribution(t *testing.T) {
	const fsyncLat = 15 * time.Millisecond

	hac, err := dta.NewHACluster(2, 1, dta.Options{
		KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 14, DataSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Chaos before WithWAL so the segment files open through the
	// fault-injection disk.
	if _, err := hac.EnableChaos(1); err != nil {
		t.Fatal(err)
	}
	if err := hac.WithWAL(t.TempDir(), dta.WALPolicy{Mode: dta.WALSyncBatch}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := hac.SlowDisk(i, fsyncLat); err != nil {
			t.Fatal(err)
		}
	}

	// The engine path is what dtaload -wal drives, and with SyncBatch it
	// is also what makes the traces complete: the worker's batch
	// boundaries issue the WAL sync barriers that produce durable acks.
	eng, err := hac.Engine(dta.EngineConfig{QueueDepth: 64, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}

	// Default candidate sampling is 1/1024 per reporter; bursts paced
	// slower than the injected fsync latency keep the engine queue
	// empty, so the sampled candidates' traces are fsync-bound rather
	// than queue-bound. ~12k reports yields a handful of candidates,
	// every one far past the 1ms tail threshold.
	rep := eng.Reporter(1)
	for burst := 0; burst < 100; burst++ {
		for i := 0; i < 128; i++ {
			k := uint64(burst*128 + i)
			if err := rep.KeyWrite(dta.KeyFromUint64(k), []byte{1, 2, 3, 4}, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * fsyncLat / 2)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	// Sampled traces publish at durable ack — after the flusher's next
	// write+fsync cycle — so poll rather than sleeping a guessed amount.
	tracer := hac.Tracer()
	if tracer == nil {
		t.Fatal("Tracer() = nil with telemetry enabled")
	}
	buf := make([]trace.Record, 2048)
	deadline := time.Now().Add(10 * time.Second)
	var match *trace.Record
	for time.Now().Before(deadline) && match == nil {
		recs, _, _ := tracer.Since(0, buf[:0])
		for i := range recs {
			r := &recs[i]
			if r.Flags&trace.FSlow == 0 {
				continue // head-kept baseline or other tail causes
			}
			if r.TS[trace.StWALWrite] == 0 || r.TS[trace.StFsync] == 0 {
				continue
			}
			if dominantSegment(r) == "wal_write→fsync" {
				match = r
				break
			}
		}
		if match == nil {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if match == nil {
		recs, _, _ := tracer.Since(0, buf[:0])
		t.Fatalf("no tail-retained fsync-dominated trace after slow-disk run (%d traces published)", len(recs))
	}
	if got := match.TS[trace.StFsync] - match.TS[trace.StWALWrite]; got < int64(fsyncLat)/2 {
		t.Errorf("fsync segment %dns implausibly small for an injected %s fault", got, fsyncLat)
	}
	if match.Total() < int64(fsyncLat)/2 {
		t.Errorf("trace total %dns below the injected fault magnitude", match.Total())
	}

	// The same trace must be visible over the HTTP surface dtastat
	// -traces renders: /debug/traces with the cursor protocol.
	srv := httptest.NewServer(hac.ObsMux())
	defer srv.Close()
	resp := httpGetJSON(t, srv.URL+"/debug/traces")
	traces, _ := resp["traces"].([]any)
	if len(traces) == 0 {
		t.Fatal("/debug/traces returned no traces")
	}
	found := false
	for _, tr := range traces {
		m := tr.(map[string]any)
		if uint64(m["id"].(float64)) == match.ID {
			found = true
			if stages, _ := m["stages"].([]any); len(stages) < 4 {
				t.Errorf("/debug/traces trace %d has %d stages, want >= 4", match.ID, len(stages))
			}
		}
	}
	if !found {
		t.Errorf("trace %d not visible via /debug/traces", match.ID)
	}
}

// dominantSegment names the largest inter-stage gap in chronological
// stamp order (enum order differs: the WAL-ring handoff lands before
// emit/translate).
func dominantSegment(r *trace.Record) string {
	type stamp struct {
		name string
		at   int64
	}
	var stamps []stamp
	for s := 0; s < trace.NumStages; s++ {
		if v := r.TS[s]; v != 0 {
			stamps = append(stamps, stamp{trace.Stage(s).String(), v})
		}
	}
	for i := 1; i < len(stamps); i++ { // insertion sort: N <= 9
		for j := i; j > 0 && stamps[j].at < stamps[j-1].at; j-- {
			stamps[j], stamps[j-1] = stamps[j-1], stamps[j]
		}
	}
	best, name := int64(-1), ""
	for i := 1; i < len(stamps); i++ {
		if gap := stamps[i].at - stamps[i-1].at; gap > best {
			best, name = gap, stamps[i-1].name+"→"+stamps[i].name
		}
	}
	return name
}
