package trace

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// beginAll begins a trace bypassing candidate sampling by spinning the
// sampler until a candidate fires (mask is 2^shift-1 so at most 2^shift
// calls).
func beginAll(t *Tracer, s *Sampler) Handle {
	for i := 0; i < 1<<16; i++ {
		if h := t.Begin(s); h.Valid() {
			return h
		}
	}
	return Handle{}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	var s Sampler
	h := tr.Begin(&s)
	if h.Valid() {
		t.Fatal("nil tracer produced a valid handle")
	}
	h.Stamp(StSubmit)
	h.Flag(FStall)
	h.Finish()
	h.Abort()
	if h.ID() != 0 {
		t.Fatal("invalid handle has nonzero ID")
	}
	if _, last, _ := tr.Since(0, nil); last != 0 {
		t.Fatal("nil tracer Since returned data")
	}
	tr.NoteResyncUntil(123)
}

func TestHeadKeepPublishes(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 4, CandidateShift: 1, HeadShift: 1, LatencyNs: int64(time.Hour)})
	var s Sampler
	kept := 0
	for i := 0; i < 16; i++ {
		h := tr.Begin(&s)
		if !h.Valid() {
			continue
		}
		h.Stamp(StSubmit)
		h.Stamp(StTranslate)
		h.Finish()
	}
	buf := make([]Record, 8)
	recs, last, _ := tr.Since(0, buf[:0])
	kept = len(recs)
	// 16 submits, candShift 1 → 8 candidates, headShift 1 → 4 kept.
	if kept != 4 {
		t.Fatalf("head sampler kept %d traces, want 4 (last=%d)", kept, last)
	}
	for i := range recs {
		if recs[i].Flags&FHead == 0 {
			t.Fatalf("trace %d missing FHead: flags=%x", recs[i].ID, recs[i].Flags)
		}
		if recs[i].Total() < 0 {
			t.Fatalf("negative total on trace %d", recs[i].ID)
		}
	}
}

func TestTailKeepsSlowWhileHeadDrops(t *testing.T) {
	// Head sampler keeps ~nothing (1/2^20 of candidates); latency
	// threshold is 1µs. A fast trace must be dropped, a slow one kept.
	tr := New(Config{Ring: 8, InFlight: 4, CandidateShift: 1, HeadShift: 20, LatencyNs: int64(time.Microsecond)})
	var s Sampler

	fast := beginAll(tr, &s)
	if !fast.Valid() {
		t.Fatal("no candidate")
	}
	now := int64(1_000_000)
	fast.StampAt(StSubmit, now)
	fast.StampAt(StTranslate, now+100) // 100ns: under threshold
	fast.Finish()

	slow := beginAll(tr, &s)
	slow.StampAt(StSubmit, now)
	slow.StampAt(StTranslate, now+int64(time.Millisecond))
	slow.Finish()

	buf := make([]Record, 8)
	recs, _, _ := tr.Since(0, buf[:0])
	if len(recs) != 1 {
		t.Fatalf("got %d published traces, want only the slow one", len(recs))
	}
	if recs[0].Flags&FSlow == 0 {
		t.Fatalf("slow trace missing FSlow: flags=%x", recs[0].Flags)
	}
	if recs[0].Flags&FHead != 0 {
		t.Fatalf("slow trace marked head-kept: flags=%x", recs[0].Flags)
	}
	if recs[0].Total() != int64(time.Millisecond) {
		t.Fatalf("total = %d, want 1ms", recs[0].Total())
	}
}

func TestFlaggedTraceAlwaysKept(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 4, CandidateShift: 1, HeadShift: 20, LatencyNs: int64(time.Hour)})
	var s Sampler
	for _, flag := range []uint32{FStall, FDegraded, FResync} {
		h := beginAll(tr, &s)
		h.StampAt(StSubmit, 1000)
		h.Flag(flag)
		h.Finish()
	}
	buf := make([]Record, 8)
	recs, _, _ := tr.Since(0, buf[:0])
	if len(recs) != 3 {
		t.Fatalf("kept %d flagged traces, want 3", len(recs))
	}
	want := []uint32{FStall, FDegraded, FResync}
	for i := range recs {
		if recs[i].Flags&want[i] == 0 {
			t.Fatalf("trace %d flags=%x missing %x", i, recs[i].Flags, want[i])
		}
	}
}

func TestResyncWindowFlagsFinishingTraces(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 4, CandidateShift: 1, HeadShift: 20, LatencyNs: int64(time.Hour)})
	tr.NoteResyncUntil(1 << 62) // far future
	var s Sampler
	h := beginAll(tr, &s)
	h.StampAt(StSubmit, 1000)
	h.Finish()
	buf := make([]Record, 8)
	recs, _, _ := tr.Since(0, buf[:0])
	if len(recs) != 1 || recs[0].Flags&FResync == 0 {
		t.Fatalf("trace finishing in resync window not kept/flagged: %+v", recs)
	}
}

func TestWALRefcountBothOrders(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 4, CandidateShift: 1, HeadShift: 1, LatencyNs: int64(time.Hour)})
	tr.headMask = 0 // keep every completed candidate: deterministic publish
	var s Sampler

	// Order 1: data side finishes first, WAL later.
	h := beginAll(tr, &s)
	h.StampAt(StSubmit, 1000)
	if !h.OwnWAL() {
		t.Fatal("OwnWAL failed on valid handle")
	}
	h.Finish() // data
	if tr.Last() != 0 {
		t.Fatal("published before WAL reference dropped")
	}
	h.StampAt(StAck, 2000)
	h.Finish() // WAL
	if tr.Last() == 0 {
		t.Fatal("not published after both references dropped")
	}

	// Order 2: WAL finishes first.
	before := tr.Last()
	h = beginAll(tr, &s)
	h.StampAt(StSubmit, 1000)
	h.OwnWAL()
	h.StampAt(StAck, 3000)
	h.Finish() // WAL
	if tr.Last() != before {
		t.Fatal("published before data reference dropped")
	}
	h.Finish() // data
	if tr.Last() == before {
		t.Fatal("not published after both references dropped")
	}
}

func TestAbortNeverPublishes(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 2, CandidateShift: 1, HeadShift: 1, LatencyNs: int64(time.Hour)})
	var s Sampler
	for i := 0; i < 8; i++ { // more aborts than pool slots: proves recycling
		h := beginAll(tr, &s)
		if !h.Valid() {
			t.Fatalf("pool leaked after %d aborts", i)
		}
		h.Stamp(StSubmit)
		h.Flag(FStall) // even flagged traces are discarded on abort
		h.Abort()
	}
	if tr.Last() != 0 {
		t.Fatal("aborted trace was published")
	}
}

func TestPoolExhaustion(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 2, CandidateShift: 1, HeadShift: 1, LatencyNs: int64(time.Hour)})
	var s Sampler
	h1 := beginAll(tr, &s)
	h2 := beginAll(tr, &s)
	if !h1.Valid() || !h2.Valid() {
		t.Fatal("pool failed to hand out its slots")
	}
	h3 := beginAll(tr, &s)
	if h3.Valid() {
		t.Fatal("got a handle from an exhausted pool")
	}
	if tr.Exhausted() == 0 {
		t.Fatal("exhaustion not counted")
	}
	h1.Finish()
	h4 := beginAll(tr, &s)
	if !h4.Valid() {
		t.Fatal("slot not recycled after finish")
	}
	h2.Finish()
	h4.Finish()
}

func TestSinceCursorAndWrap(t *testing.T) {
	tr := New(Config{Ring: 4, InFlight: 4, CandidateShift: 1, HeadShift: 1, LatencyNs: int64(time.Hour)})
	tr.headMask = 0 // keep every completed candidate: deterministic publish
	var s Sampler
	publish := func(n int) {
		for i := 0; i < n; i++ {
			h := beginAll(tr, &s)
			h.StampAt(StSubmit, int64(1000+i))
			h.Finish()
		}
	}
	publish(3)
	buf := make([]Record, 8)
	recs, last, missed := tr.Since(0, buf[:0])
	if len(recs) != 3 || last != 3 || missed != 0 {
		t.Fatalf("first read: %d recs last=%d missed=%d", len(recs), last, missed)
	}
	// Cursor resumes.
	publish(2)
	recs, last2, missed := tr.Since(last, buf[:0])
	if len(recs) != 2 || last2 != 5 || missed != 0 {
		t.Fatalf("cursor read: %d recs last=%d missed=%d", len(recs), last2, missed)
	}
	// Overflow the ring from cursor 0: ring holds 4, published 5 → 1 missed.
	recs, _, missed = tr.Since(0, buf[:0])
	if len(recs) != 4 || missed != 1 {
		t.Fatalf("wrap read: %d recs missed=%d, want 4/1", len(recs), missed)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", tr.Dropped())
	}
}

// TestScrapeDuringPublish hammers the ring from publisher goroutines
// while readers scrape continuously; under -race this validates the
// seqlock protocol, and the assertions validate record integrity (a
// torn read must never surface).
func TestScrapeDuringPublish(t *testing.T) {
	tr := New(Config{Ring: 16, InFlight: 64, CandidateShift: 1, HeadShift: 1, LatencyNs: int64(time.Hour)})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Sampler
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := tr.Begin(&s)
				if !h.Valid() {
					continue
				}
				// Self-consistent payload: every stamp equals the ID.
				for st := 0; st < NumStages; st++ {
					h.StampAt(Stage(st), int64(h.ID()))
				}
				h.Finish()
			}
		}()
	}
	deadline := time.After(200 * time.Millisecond)
	buf := make([]Record, 16)
	var cursor uint64
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
		}
		recs, last, _ := tr.Since(cursor, buf[:0])
		cursor = last
		for i := range recs {
			for st := 0; st < NumStages; st++ {
				if recs[i].TS[st] != int64(recs[i].ID) {
					t.Fatalf("torn read: trace %d stage %d stamp %d", recs[i].ID, st, recs[i].TS[st])
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestBeginSampledOutAllocs(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 4, CandidateShift: 8, HeadShift: 1, LatencyNs: int64(time.Hour)})
	var s Sampler
	s.n = 1 // off the candidate phase
	allocs := testing.AllocsPerRun(1000, func() {
		h := tr.Begin(&s)
		h.Stamp(StSubmit)
		h.Finish()
		if s.n&(1<<8-1) == 0 {
			s.n++ // skip candidates: this pins the sampled-OUT path
		}
	})
	if allocs != 0 {
		t.Fatalf("sampled-out Begin allocates: %v allocs/op", allocs)
	}
}

func TestHTTPHandler(t *testing.T) {
	tr := New(Config{Ring: 8, InFlight: 4, CandidateShift: 1, HeadShift: 1, LatencyNs: int64(time.Hour)})
	tr.headMask = 0 // keep every completed candidate: deterministic publish
	var s Sampler
	h := beginAll(tr, &s)
	h.StampAt(StSubmit, 1000)
	h.StampAt(StEnqueue, 1500)
	h.StampAt(StDequeue, 2000)
	h.StampAt(StTranslate, 3000)
	h.Finish()

	req := httptest.NewRequest("GET", "/debug/traces", nil)
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, req)
	var p struct {
		Last   uint64 `json:"last"`
		Traces []struct {
			ID      uint64 `json:"id"`
			Flags   []string
			TotalNs int64 `json:"total_ns"`
			Stages  []struct {
				Stage string `json:"stage"`
				AtNs  int64  `json:"at_ns"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if p.Last != 1 || len(p.Traces) != 1 {
		t.Fatalf("payload: last=%d traces=%d", p.Last, len(p.Traces))
	}
	tr0 := p.Traces[0]
	if tr0.TotalNs != 2000 || len(tr0.Stages) != 4 {
		t.Fatalf("trace: total=%d stages=%d", tr0.TotalNs, len(tr0.Stages))
	}
	if tr0.Stages[0].Stage != "submit" || tr0.Stages[0].AtNs != 0 {
		t.Fatalf("first stage: %+v", tr0.Stages[0])
	}
	if tr0.Stages[3].Stage != "translate" || tr0.Stages[3].AtNs != 2000 {
		t.Fatalf("last stage: %+v", tr0.Stages[3])
	}

	// Cursor: since=last returns nothing new.
	req = httptest.NewRequest("GET", "/debug/traces?since=1", nil)
	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(p.Traces) != 0 {
		t.Fatalf("cursor read returned %d traces", len(p.Traces))
	}

	// Bad cursor is a 400.
	req = httptest.NewRequest("GET", "/debug/traces?since=x", nil)
	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad cursor: status %d", rec.Code)
	}
}

// TestSegments pins the chronological walk: stamped stages in time
// order (not enum order), each with the gap to the next, the last one
// closing the trace; and the JSON rendering rebuilds the same stamps.
func TestSegments(t *testing.T) {
	var r Record
	r.TS[StSubmit] = 1000
	r.TS[StWALRing] = 1700 // after emit in time, before it in enum order
	r.TS[StEmit] = 1200
	r.TS[StAck] = 5000
	want := []Segment{
		{From: StSubmit, To: StEmit, AtNs: 0, Ns: 200},
		{From: StEmit, To: StWALRing, AtNs: 200, Ns: 500},
		{From: StWALRing, To: StAck, AtNs: 700, Ns: 3300},
		{From: StAck, To: StAck, AtNs: 4000, Ns: 0},
	}
	got := r.Segments()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Segments = %+v, want %+v", got, want)
	}
	if got[1].Name() != "emit→wal_ring" {
		t.Fatalf("Name = %q", got[1].Name())
	}
	if len((&Record{}).Segments()) != 0 {
		t.Fatal("unstamped record has segments")
	}
	j := r.JSON()
	if back := j.Record(); back.TS != r.TS {
		t.Fatalf("JSON round trip: %v, want %v", back.TS, r.TS)
	}
}
