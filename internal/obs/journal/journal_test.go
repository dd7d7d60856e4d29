package journal

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestPublishAndSince pins the basic contract: events come back in
// sequence order with every field intact, and the cursor protocol
// returns only what happened after the previous scrape.
func TestPublishAndSince(t *testing.T) {
	j := New(64)
	cause := j.NewCause()
	j.Publish(CompHA, EvSetDown, SevWarn, 2, cause, 7, 0, 0)
	j.Publish(CompWAL, EvCheckpoint, SevInfo, -1, 0, 123, 0, 0)

	events, next, missed := j.Since(0, nil)
	if missed != 0 {
		t.Fatalf("missed = %d, want 0", missed)
	}
	if len(events) != 2 {
		t.Fatalf("len(events) = %d, want 2", len(events))
	}
	e := events[0]
	if e.Seq != 1 || e.Type != EvSetDown || e.Sev != SevWarn || e.Comp != CompHA ||
		e.Collector != 2 || e.Cause != cause || e.Arg1 != 7 {
		t.Fatalf("first event mangled: %+v", e)
	}
	if events[1].Collector != -1 {
		t.Fatalf("negative collector did not round-trip: %+v", events[1])
	}
	if events[1].WallNs == 0 {
		t.Fatal("wall clock not stamped")
	}

	// Nothing new: the cursor returns an empty delta.
	more, next2, missed := j.Since(next, nil)
	if len(more) != 0 || missed != 0 || next2 != next {
		t.Fatalf("empty delta came back non-empty: %d events, missed %d", len(more), missed)
	}

	// One more event: only it comes back.
	j.Publish(CompEngine, EvStallStart, SevWarn, 0, 0, 256, 0, 0)
	more, _, _ = j.Since(next, nil)
	if len(more) != 1 || more[0].Type != EvStallStart {
		t.Fatalf("cursor delta = %+v, want the one stall event", more)
	}
}

// TestNilSafety pins the telemetry-off mode: every method on a nil
// journal (and the zero Emitter) is a usable no-op.
func TestNilSafety(t *testing.T) {
	var j *Journal
	if seq := j.Publish(CompHA, EvSetDown, SevWarn, 0, 0, 0, 0, 0); seq != 0 {
		t.Fatalf("nil Publish returned %d", seq)
	}
	if j.NewCause() != 0 || j.Last() != 0 || j.Dropped() != 0 || j.Cap() != 0 {
		t.Fatal("nil accessors not zero")
	}
	if events, next, missed := j.Since(0, nil); len(events) != 0 || next != 0 || missed != 0 {
		t.Fatal("nil Since not empty")
	}
	var e Emitter
	if seq := e.Emit(EvSetUp, SevInfo, 0, 0, 0, 0); seq != 0 {
		t.Fatalf("zero Emitter emitted seq %d", seq)
	}
	if err := j.DumpFile(filepath.Join(t.TempDir(), "events.jsonl")); err != nil {
		t.Fatalf("nil DumpFile: %v", err)
	}
}

// TestWrapAccounting pins overwrite behaviour: a reader whose cursor
// fell behind the ring gets the retained suffix plus an exact count of
// what was lost, and Dropped tracks the lifetime overwrite total.
func TestWrapAccounting(t *testing.T) {
	j := New(8)
	if j.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", j.Cap())
	}
	for i := 0; i < 20; i++ {
		j.Publish(CompHA, EvReadRepair, SevInfo, -1, 0, uint64(i), 0, 0)
	}
	events, next, missed := j.Since(0, nil)
	if missed != 12 {
		t.Fatalf("missed = %d, want 12", missed)
	}
	if j.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", j.Dropped())
	}
	if next != 20 {
		t.Fatalf("next = %d, want 20", next)
	}
	if len(events) != 8 {
		t.Fatalf("len(events) = %d, want 8 (ring capacity)", len(events))
	}
	for i, e := range events {
		if want := uint64(13 + i); e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Arg1 != e.Seq-1 {
			t.Fatalf("events[%d] payload mismatch: seq %d arg %d", i, e.Seq, e.Arg1)
		}
	}
}

// TestCausalChain pins causal linkage: events published under one
// minted cause form a chain, in publish order, even when interleaved
// with unrelated events from other components.
func TestCausalChain(t *testing.T) {
	j := New(64)
	cause := j.NewCause()
	other := j.NewCause()
	if cause == other || cause == 0 {
		t.Fatalf("causes not distinct and non-zero: %d %d", cause, other)
	}
	j.Publish(CompHA, EvSetDown, SevWarn, 1, cause, 3, 0, 0)
	j.Publish(CompWAL, EvWALRotate, SevInfo, 0, other, 100, 0, 0)
	j.Publish(CompHA, EvWALFence, SevInfo, 1, cause, 42, 2, 0)
	j.Publish(CompHA, EvEpochBump, SevInfo, 1, cause, 4, 0, 0)
	j.Publish(CompHA, EvResyncEnd, SevInfo, 1, cause, 9, 0, 0)

	events, _, _ := j.Since(0, nil)
	var chain []Type
	for _, e := range events {
		if e.Cause == cause {
			chain = append(chain, e.Type)
		}
	}
	want := []Type{EvSetDown, EvWALFence, EvEpochBump, EvResyncEnd}
	if !reflect.DeepEqual(chain, want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
}

// TestConcurrentPublishScrape exercises the seqlock under -race: many
// publishers racing a scraper must never yield a torn event, and the
// final accounting (events read + events missed) must cover every
// publish exactly.
func TestConcurrentPublishScrape(t *testing.T) {
	j := New(128) // small ring: force wraps under the publishers
	const publishers = 8
	const perPublisher = 2000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper: validity checked, results discarded
		defer wg.Done()
		var cursor uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			events, next, _ := j.Since(cursor, nil)
			for _, e := range events {
				if e.Type != EvReadRepair || e.Comp != CompHA {
					t.Errorf("torn event scraped: %+v", e)
					return
				}
			}
			cursor = next
		}
	}()
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				j.Publish(CompHA, EvReadRepair, SevInfo, int16(p), 0, uint64(i), 0, 0)
			}
		}(p)
	}
	for j.Last() < publishers*perPublisher {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := j.Last(); got != publishers*perPublisher {
		t.Fatalf("Last = %d, want %d", got, publishers*perPublisher)
	}
	// Quiescent scrape: retained suffix + missed = everything.
	events, _, missed := j.Since(0, nil)
	if uint64(len(events))+missed != publishers*perPublisher {
		t.Fatalf("events %d + missed %d != published %d", len(events), missed, publishers*perPublisher)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("scrape not contiguous at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

// TestGate pins the rate limiter: one pass per gap, and concurrent
// callers never double-admit within a window.
func TestGate(t *testing.T) {
	var g Gate
	if !g.Allow(10 * time.Millisecond) {
		t.Fatal("first Allow refused")
	}
	if g.Allow(10 * time.Millisecond) {
		t.Fatal("second Allow inside the gap admitted")
	}
	time.Sleep(15 * time.Millisecond)
	if !g.Allow(10 * time.Millisecond) {
		t.Fatal("Allow after the gap refused")
	}

	var g2 Gate
	var admitted sync.Map
	var wg sync.WaitGroup
	n := 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if g2.Allow(time.Hour) {
				admitted.Store(i, true)
			}
		}(i)
	}
	wg.Wait()
	admitted.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("%d goroutines admitted within one gap, want 1", n)
	}
}

// TestDumpRoundTrip pins the recovery dump: DumpFile then ReadDump
// yields the same records the live journal renders.
func TestDumpRoundTrip(t *testing.T) {
	j := New(64)
	cause := j.NewCause()
	j.Publish(CompWAL, EvRecoveryStart, SevInfo, -1, cause, 0, 0, 0)
	j.Publish(CompWAL, EvTornTail, SevWarn, -1, cause, 57, 0, 0)
	j.Publish(CompWAL, EvReplayExtent, SevInfo, -1, cause, 1000, 42, 0)

	path := filepath.Join(t.TempDir(), DumpFileName)
	if err := j.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	live, _, _ := j.Since(0, nil)
	want := make([]Record, 0, len(live))
	for i := range live {
		want = append(want, live[i].Record())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got[1].Type != "torn-tail" || got[1].Detail != "truncated=57B" || got[1].Cause != cause {
		t.Fatalf("rendered record wrong: %+v", got[1])
	}
}

// eventsPayload is the /debug/events response envelope.
type eventsPayload struct {
	Last    uint64   `json:"last"`
	Missed  uint64   `json:"missed"`
	Dropped uint64   `json:"dropped"`
	Events  []Record `json:"events"`
}

// TestHTTPHandler pins the /debug/events contract: a well-formed
// payload, an honest since-cursor, and a 400 on garbage cursors.
func TestHTTPHandler(t *testing.T) {
	j := New(64)
	j.Publish(CompHA, EvSetDown, SevWarn, 0, j.NewCause(), 1, 0, 0)
	j.Publish(CompHA, EvSetUp, SevInfo, 0, 0, 2, 0, 0)
	h := Handler(j)

	get := func(url string) (eventsPayload, int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var p eventsPayload
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
				t.Fatalf("bad payload: %v\n%s", err, rec.Body.String())
			}
		}
		return p, rec.Code
	}

	p, code := get("/debug/events")
	if code != 200 || len(p.Events) != 2 || p.Last != 2 || p.Missed != 0 || p.Dropped != 0 {
		t.Fatalf("full scrape: code %d payload %+v", code, p)
	}
	if p.Events[0].Type != "set-down" || p.Events[0].Sev != "warn" || p.Events[0].Component != "ha" {
		t.Fatalf("rendered event wrong: %+v", p.Events[0])
	}

	p, code = get("/debug/events?since=2")
	if code != 200 || len(p.Events) != 0 || p.Last != 2 {
		t.Fatalf("caught-up cursor: code %d payload %+v", code, p)
	}

	j.Publish(CompHA, EvCheckpoint, SevInfo, 0, 0, 3, 0, 0)
	p, _ = get("/debug/events?since=2")
	if len(p.Events) != 1 || p.Events[0].Type != "checkpoint" || p.Last != 3 {
		t.Fatalf("cursor delta: %+v", p)
	}

	if _, code := get("/debug/events?since=banana"); code != 400 {
		t.Fatalf("bad cursor served %d, want 400", code)
	}

	// Nil journal: still well-formed.
	rec := httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	var p0 eventsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p0); err != nil || len(p0.Events) != 0 {
		t.Fatalf("nil journal payload: %v %+v", err, p0)
	}
}

// TestCollectorPacking pins the int16 collector label through the
// packed word: boundary values survive the round-trip.
func TestCollectorPacking(t *testing.T) {
	j := New(8)
	for _, c := range []int16{-1, 0, 1, 255, 256, 32767, -32768} {
		j.Publish(CompEngine, EvStallEnd, SevInfo, c, 0, 0, 0, 0)
		events, _, _ := j.Since(j.Last()-1, nil)
		if len(events) != 1 || events[0].Collector != c {
			t.Fatalf("collector %d round-tripped as %+v", c, events)
		}
	}
}
