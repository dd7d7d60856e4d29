package dta

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"testing"

	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
	"dta/internal/snapshot"
	"dta/internal/wal"
	"dta/internal/wire"
)

// batchStream is one seeded mixed-primitive report stream: the staged
// records, each one's clock, and which of them carry a trace handle. The
// clock moves in steps, so a chunk (which has one clock) never has to
// span two values.
type batchStream struct {
	recs   []wire.StagedReport
	now    []uint64
	traced []bool
}

func newBatchStream(seed int64, n int) *batchStream {
	rng := rand.New(rand.NewSource(seed))
	st := &batchStream{recs: make([]wire.StagedReport, n), now: make([]uint64, n), traced: make([]bool, n)}
	clock, left := uint64(0), 0
	for i := range st.recs {
		if left == 0 {
			clock += 40_000
			left = 1 + rng.Intn(150)
		}
		left--
		st.now[i] = clock
		st.traced[i] = rng.Intn(6) == 0
		k := wire.KeyFromUint64(rng.Uint64() % 512)
		var rep wire.Report
		switch rng.Intn(4) {
		case 0:
			rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite}
			rep.KeyWrite = wire.KeyWrite{Redundancy: uint8(1 + rng.Intn(3)), Key: k}
			rep.Data = []byte{byte(i), byte(i >> 8), 3, 4}
		case 1:
			rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement}
			rep.KeyIncrement = wire.KeyIncrement{Redundancy: uint8(1 + rng.Intn(2)), Key: k, Delta: uint64(1 + rng.Intn(9))}
		case 2:
			flow := rng.Uint64() % 64
			rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding}
			rep.Postcard = wire.Postcard{Key: wire.KeyFromUint64(1<<32 | flow), Hop: uint8(rng.Intn(3)), PathLen: 3, Value: uint32(1 + rng.Intn(7))}
		case 3:
			list := uint32(rng.Intn(4))
			if rng.Intn(100) == 0 {
				list = 99 // no such list: the record fails, the stream goes on
			}
			rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimAppend}
			rep.Append = wire.Append{ListID: list}
			rep.Data = []byte{byte(i >> 8), byte(i), 0, 7}
		}
		st.recs[i].Stage(&rep)
	}
	return st
}

// tapEvent is one observation of the translator's outward hooks.
type tapEvent struct {
	wal     bool   // WAL hook (else Emit)
	sum     uint64 // Emit: hash of the crafted packet
	traceID uint64 // trace handle active at the hook
}

// tap records, in order, every packet the translator emits and every
// record it logs, with the trace ID active at that moment.
func tap(s *System) *[]tapEvent {
	log := new([]tapEvent)
	emit := s.tr.Emit
	s.tr.Emit = func(pkt []byte) {
		h := fnv.New64a()
		h.Write(pkt)
		*log = append(*log, tapEvent{sum: h.Sum64(), traceID: s.tr.TraceHandle().ID()})
		emit(pkt)
	}
	if logf := s.tr.WAL; logf != nil {
		s.tr.WAL = func(rec *wire.StagedReport, nowNs uint64) error {
			*log = append(*log, tapEvent{wal: true, traceID: s.tr.TraceHandle().ID()})
			return logf(rec, nowNs)
		}
	}
	return log
}

func storeImages(s *System) map[string][]byte {
	h := s.host
	return map[string][]byte{
		"keywrite":     h.KeyWriteStore().Buffer(),
		"keyincrement": h.KeyIncrementStore().Buffer(),
		"postcarding":  h.PostcardingStore().Buffer(),
		"append":       h.AppendStore().Buffer(),
	}
}

func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == "events.jsonl" {
			continue // wall-clock stamped journal dump
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func sameImages(t *testing.T, what string, a, b map[string][]byte) {
	t.Helper()
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(a) != len(b) {
		t.Errorf("%s: %d images vs %d", what, len(a), len(b))
	}
	for _, name := range names {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: %s differs (%dB vs %dB)", what, name, len(a[name]), len(b[name]))
		}
	}
}

// TestChunkOfNMatchesChunkOfOne is the batch entry's property test: the
// same seeded four-primitive stream — some records traced, a few
// failing — goes through the per-record entry (a chunk of one, the
// synchronous reporters' path) on one system and through the worker's
// chunk entry cut at random boundaries 1…ChunkFrames on an identical
// second one, limiter and WAL on and off. Everything
// observable must agree: every emitted packet and logged record, in
// order, with the same trace ID active; store bytes; Stats and WAL
// counters; WAL segment bytes; failure counts. A third identical system
// takes the same chunks with their plan made at staging — the sink's
// PlanStaged per record into one recycled plan array, as a Submitter
// does it — where the second plans in place: stage A's two homes must be
// indistinguishable too, Key-Increment aggregation on and off. The logs then
// replay — chunked, as Recover does it, and record by record — into
// identical stores again.
func TestChunkOfNMatchesChunkOfOne(t *testing.T) {
	const chunkFrames = 32 // engine default
	for _, tc := range []struct {
		name string
		rate float64
		wal  bool
		agg  int
	}{
		{name: "bare"},
		{name: "limiter", rate: 1e6},
		{name: "wal", wal: true, agg: 64},
		{name: "limiter+wal", rate: 1e6, wal: true},
		{name: "lossless", rate: 1e6, wal: true, agg: 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newBatchStream(int64(len(tc.name))*7919+3, 4000)
			opts := Options{
				KeyWrite:     &KeyWriteOptions{Slots: 1 << 10, DataSize: 4},
				KeyIncrement: &KeyIncrementOptions{Slots: 1 << 8, AggregationRows: tc.agg},
				Postcarding:  &PostcardingOptions{Chunks: 1 << 8, Hops: 3, Values: []uint32{1, 2, 3, 4, 5, 6, 7}, CacheRows: 16},
				Append:       &AppendOptions{Lists: 4, EntriesPerList: 1 << 8, EntrySize: 4, Batch: 4},
				RateLimit:    tc.rate,
			}
			build := func() (*System, *[]tapEvent, string) {
				// A pool no run can exhaust: which submits get a trace must
				// not depend on how fast the log's flusher releases slots.
				tel := telemetry{reg: obs.NewRegistry(), jr: journal.New(0), trc: trace.New(trace.Config{InFlight: len(st.recs)})}
				s, err := newSystem(opts, &tel, -1)
				if err != nil {
					t.Fatal(err)
				}
				dir := ""
				if tc.wal {
					dir = t.TempDir()
					if err := s.WithWAL(dir, WALPolicy{}); err != nil {
						t.Fatal(err)
					}
				}
				return s, tap(s), dir
			}
			begin := func(s *System, i int) trace.Handle {
				if !st.traced[i] {
					return trace.Handle{}
				}
				h := s.trc.BeginCandidate()
				h.Stamp(trace.StSubmit)
				return h
			}

			one, oneLog, oneDir := build()
			oneFailed := 0
			for i := range st.recs {
				h := begin(one, i)
				var err error
				if h.Valid() {
					_, err = one.tr.ProcessStagedBatch(st.recs[i:i+1], wire.ChunkPlan{}, []trace.Handle{h}, st.now[i])
				} else {
					err = one.tr.ProcessStaged(&st.recs[i], st.now[i])
				}
				if err != nil {
					oneFailed++
				}
				h.Finish()
			}

			// chunked feeds the stream to s through the worker's chunk entry,
			// cut at the same seeded boundaries on every call.
			chunked := func(s *System, planAtStaging bool) (failed int) {
				rng := rand.New(rand.NewSource(99))
				trcs := make([]trace.Handle, 0, chunkFrames)
				var plan wire.ChunkPlan // recycled from chunk to chunk
				sink := systemSink{s}
				for a := 0; a < len(st.recs); {
					b := min(a+1+rng.Intn(chunkFrames), len(st.recs))
					for j := a + 1; j < b; j++ {
						if st.now[j] != st.now[a] {
							b = j
						}
					}
					trcs = trcs[:0]
					plan.Reset()
					for i := a; i < b; i++ {
						trcs = append(trcs, begin(s, i))
						if planAtStaging {
							sink.PlanStaged(&st.recs[i], &plan)
						}
					}
					n, _ := sink.ProcessStagedBatch(st.recs[a:b], plan, trcs, st.now[a])
					failed += n
					for _, h := range trcs {
						h.Finish()
					}
					a = b
				}
				return failed
			}
			many, manyLog, manyDir := build()
			manyFailed := chunked(many, false)
			staged, stagedLog, stagedDir := build()
			stagedFailed := chunked(staged, true)

			for _, s := range []*System{one, many, staged} {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := s.SyncWAL(); err != nil {
					t.Fatal(err)
				}
			}
			if oneFailed == 0 || oneFailed != manyFailed || oneFailed != stagedFailed {
				t.Errorf("failed records: %d per record, %d chunked, %d planned at staging (want equal, non-zero)", oneFailed, manyFailed, stagedFailed)
			}
			if len(*oneLog) != len(*manyLog) || len(*oneLog) != len(*stagedLog) {
				t.Fatalf("hook calls: %d per record, %d chunked, %d planned at staging", len(*oneLog), len(*manyLog), len(*stagedLog))
			}
			tracedCalls := 0
			for i, ev := range *oneLog {
				if ev != (*manyLog)[i] || ev != (*stagedLog)[i] {
					t.Fatalf("hook call %d: per record %+v, chunked %+v, planned at staging %+v", i, ev, (*manyLog)[i], (*stagedLog)[i])
				}
				if ev.traceID != 0 {
					tracedCalls++
				}
			}
			if tracedCalls == 0 {
				t.Error("no hook call saw a live trace handle")
			}
			sameImages(t, "stores", storeImages(one), storeImages(many))
			sameImages(t, "stores, planned at staging", storeImages(many), storeImages(staged))
			so, sm := one.Stats(), many.Stats()
			if so != sm || sm != staged.Stats() {
				t.Errorf("Stats:\n per record         %+v\n chunked            %+v\n planned at staging %+v", so, sm, staged.Stats())
			}
			if to, tm, ts := one.tr.Stats(), many.tr.Stats(), staged.tr.Stats(); to != tm || tm != ts {
				t.Errorf("translator Stats:\n per record         %+v\n chunked            %+v\n planned at staging %+v", to, tm, ts)
			}
			if (tc.rate > 0) != (so.RateDropped > 0) {
				t.Errorf("RateDropped = %d with RateLimit %v", so.RateDropped, tc.rate)
			}
			if !tc.wal {
				return
			}
			wo, _ := one.WALStats()
			wm, _ := many.WALStats()
			ws, _ := staged.WALStats()
			// Publications count ingest calls, which is the one thing the
			// two runs differ in by construction.
			if wo.Publishes != wo.Appends || wm.Publishes >= wo.Publishes {
				t.Errorf("publications: per record %d for %d appends, chunked %d", wo.Publishes, wo.Appends, wm.Publishes)
			}
			// The flusher-paced cells (syncs, ring high water, nudges) are
			// timing, not content.
			if ws.Publishes != wm.Publishes {
				t.Errorf("publications: %d planned in place, %d planned at staging", wm.Publishes, ws.Publishes)
			}
			for _, w := range []*WALStats{&wo, &wm, &ws} {
				w.Publishes, w.Syncs, w.RingHighWater, w.RingStalls, w.NudgesDropped = 0, 0, 0, 0, 0
			}
			if wo != wm || wm != ws || wo.Appends == 0 {
				t.Errorf("WALStats:\n per record         %+v\n chunked            %+v\n planned at staging %+v", wo, wm, ws)
			}
			for _, s := range []*System{one, many, staged} {
				if err := s.CloseWAL(); err != nil {
					t.Fatal(err)
				}
			}
			sameImages(t, "WAL directory", dirImage(t, oneDir), dirImage(t, manyDir))
			sameImages(t, "WAL directory, planned at staging", dirImage(t, manyDir), dirImage(t, stagedDir))

			// Replay: Recover's chunked entry against the record-by-record
			// replay it replaced.
			replayed, err := RecoverSystem(manyDir)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := New(optionsFromTranslator(many.tr.Config()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wal.Recover(oneDir, snapshot.View(serial.host), serial.tr.AppendBatcher(),
				func(lsn, nowNs uint64, rec *wire.StagedReport) error {
					return serial.tr.ProcessStaged(rec, nowNs)
				}); err != nil {
				t.Fatal(err)
			}
			for _, s := range []*System{replayed, serial} {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			sameImages(t, "replayed stores", storeImages(serial), storeImages(replayed))
			if sc, ss := replayed.tr.Stats(), serial.tr.Stats(); sc != ss {
				t.Errorf("replay translator Stats:\n serial  %+v\n chunked %+v", ss, sc)
			}
		})
	}
}

// TestSystemSinkBatchZeroAllocs extends the structured-ingest allocation
// pins to the worker's chunk entry itself — all four primitives,
// Key-Increment aggregation on, the plan made at staging (PlanStaged
// into a recycled array must not allocate).
func TestSystemSinkBatchZeroAllocs(t *testing.T) {
	values := make([]uint32, 256)
	for i := range values {
		values[i] = uint32(i + 1)
	}
	s, err := New(Options{
		KeyWrite:     &KeyWriteOptions{Slots: 1 << 12, DataSize: 4},
		KeyIncrement: &KeyIncrementOptions{Slots: 1 << 10, AggregationRows: 8},
		Postcarding:  &PostcardingOptions{Chunks: 1 << 10, Hops: 5, Values: values, CacheRows: 64},
		Append:       &AppendOptions{Lists: 4, EntriesPerList: 1 << 10, EntrySize: 4, Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]wire.StagedReport, 32)
	for i := range recs {
		k := wire.KeyFromUint64(uint64(i))
		var rep wire.Report
		switch i % 4 {
		case 0:
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
				KeyWrite: wire.KeyWrite{Redundancy: 2, Key: k}, Data: []byte{1, 2, 3, 4}}
		case 1:
			// Keys in pairs: the second of each pair is absorbed by the
			// aggregation cache, the first may evict another key.
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
				KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: wire.KeyFromUint64(uint64(i / 8)), Delta: 1}}
		case 2:
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
				Postcard: wire.Postcard{Key: wire.KeyFromUint64(uint64(i / 8)), Hop: uint8(i / 4 % 2), PathLen: 2, Value: uint32(i + 1)}}
		case 3:
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
				Append: wire.Append{ListID: uint32(i % 4)}, Data: []byte{byte(i), 0, 0, 1}}
		}
		recs[i].Stage(&rep)
	}
	trcs := make([]trace.Handle, len(recs))
	sink := systemSink{s}
	var plan wire.ChunkPlan
	plan.Reserve(len(recs))
	chunk := func() {
		plan.Reset()
		for i := range recs {
			sink.PlanStaged(&recs[i], &plan)
		}
		if failed, err := sink.ProcessStagedBatch(recs, plan, trcs, 0); failed != 0 {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		chunk() // warm-up: batcher stashes
	}
	before := s.tr.Stats()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(500, chunk)
	if allocs != 0 {
		t.Fatalf("systemSink.ProcessStagedBatch allocated %.2f per chunk, want 0", allocs)
	}
	if st := s.tr.Stats(); st.PostcardEmits == before.PostcardEmits || st.AppendFlushes == before.AppendFlushes || st.KIAggregated == before.KIAggregated {
		t.Fatalf("chunk did not exercise every emit path: %+v", st)
	}
}
