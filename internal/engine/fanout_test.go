package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dta/internal/obs/trace"
	"dta/internal/wire"
)

// leg is one record as a shard's sink received it: the report's key,
// the record's address and its place in the chunk.
type leg struct {
	key  uint64
	addr uintptr
	k, n int // index in the chunk, chunk length
}

// addrSink records every record it receives as a leg, and how each view
// arrived: its length and whether it came as the whole chunk (nil).
type addrSink struct {
	recordSink
	legs  []leg
	views []int
	whole []bool
}

func (s *addrSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, _ []trace.Handle, _ uint64) (int, error) {
	n := wire.ViewLen(recs, idx)
	s.views, s.whole = append(s.views, n), append(s.whole, idx == nil)
	for j := range n {
		k := wire.ViewAt(idx, j)
		s.legs = append(s.legs, leg{key: recordKey(&recs[k]), addr: uintptr(unsafe.Pointer(&recs[k])), k: k, n: len(recs)})
	}
	return 0, nil
}

// recordKey is the key of a Key-Write or Key-Increment record.
func recordKey(r *wire.StagedReport) uint64 {
	if r.Primitive() == wire.PrimKeyIncrement {
		key, _, _ := r.KeyIncrementArgs()
		return key.Uint64()
	}
	key, _ := r.KeyWriteArgs()
	return key.Uint64()
}

// TestFanOutReadsOneRecord: a replicated fan-out stages a report once.
// 4 shards, R = 3, a seeded Key-Write + Key-Increment stream whose
// middle third leaves shard 3 out of every recipient set. Every report's
// R legs resolve to one record address — or, where a leg filled its
// view and queued the chunk, to two: the last record of that chunk and
// the first of the next — and each shard receives exactly the reports
// addressed to it, in submission order. A one-shard engine still cuts
// a chunk every ChunkFrames reports, each handed over whole.
func TestFanOutReadsOneRecord(t *testing.T) {
	const shards, r, frames, n = 4, 3, 8, 3000
	var sinks [shards]*addrSink
	list := make([]Sink, shards)
	for i := range sinks {
		sinks[i] = &addrSink{}
		list[i] = sinks[i]
	}
	e := mustEngine(t, list, Config{ChunkFrames: frames})
	sub := e.Submitter()
	rng := rand.New(rand.NewSource(61))
	owners := make([][]int, n)
	var want [shards][]uint64
	nows := make([]uint64, r)
	for i := range n {
		set := rng.Perm(shards)[:r]
		if i >= n/3 && i < 2*n/3 {
			set = rng.Perm(shards - 1)
		}
		owners[i] = set
		for _, o := range set {
			want[o] = append(want[o], uint64(i))
		}
		rep := kwReport(uint64(i), []byte{byte(i)})
		if rng.Intn(2) == 0 {
			rep = kiReport(uint64(i))
		}
		for j := range nows {
			nows[j] = uint64(i)
		}
		if err := sub.SubmitReportFan(set, nows, rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	got := make([]map[uint64]leg, shards)
	for s, sink := range sinks {
		keys := make([]uint64, len(sink.legs))
		got[s] = map[uint64]leg{}
		for j, l := range sink.legs {
			keys[j], got[s][l.key] = l.key, l
		}
		if !slices.Equal(keys, want[s]) {
			t.Fatalf("shard %d received %d reports, want the %d addressed to it in submission order", s, len(keys), len(want[s]))
		}
	}
	split := 0
	for i, set := range owners {
		var addrs []uintptr
		var first, last leg
		for j, o := range set {
			l := got[o][uint64(i)]
			if !slices.Contains(addrs, l.addr) {
				addrs = append(addrs, l.addr)
			}
			if j == 0 {
				first = l
			}
			last = l
		}
		switch {
		case len(addrs) == 1:
		case len(addrs) == 2 && first.k == first.n-1 && last.k == 0:
			split++
		default:
			t.Fatalf("report %d: its %d legs read %d records (first at %d of %d, last at %d of %d)", i, len(set), len(addrs), first.k, first.n, last.k, last.n)
		}
	}
	if split > n/frames {
		t.Errorf("%d reports staged twice; only a leg that fills its view does that", split)
	}

	one := &addrSink{}
	e = mustEngine(t, []Sink{one}, Config{ChunkFrames: frames})
	sub = e.Submitter()
	for i := range 100 {
		var err error
		if i%2 == 0 {
			err = sub.SubmitReport(0, kwReport(uint64(i), nil), 0)
		} else {
			err = sub.SubmitReportFan([]int{0}, []uint64{0}, kiReport(uint64(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wantViews := append(slices.Repeat([]int{frames}, 100/frames), 100%frames)
	if !slices.Equal(one.views, wantViews) || slices.Contains(one.whole, false) {
		t.Errorf("one-shard chunks %v (whole %v), want %v, each whole", one.views, one.whole, wantViews)
	}
}

// payloadSink checks every record's payload against its key, yielding
// its core at random while it holds a view, and counts what it saw.
type payloadSink struct {
	recordSink
	rng  *rand.Rand
	seen int
	bad  []string
}

// payloadOf is the 8-byte payload producers stage with key.
func payloadOf(key uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, key*0x9e3779b97f4a7c15)
}

func (s *payloadSink) ProcessStagedBatch(recs []wire.StagedReport, idx []uint32, _ wire.ChunkPlan, _ []trace.Handle, _ uint64) (int, error) {
	for j := range wire.ViewLen(recs, idx) {
		rec := &recs[wire.ViewAt(idx, j)]
		key, _ := rec.KeyWriteArgs()
		if want := payloadOf(key.Uint64()); !slices.Equal(rec.Payload(), want) {
			s.bad = append(s.bad, fmt.Sprintf("key %#x carried %x, want %x", key.Uint64(), rec.Payload(), want))
		}
		if s.rng.Intn(4) == 0 {
			runtime.Gosched()
		}
		s.seen++
	}
	return 0, nil
}

// TestSharedChunkOutlivesEveryView: a chunk read by several shards is
// pooled only once its last view is released. Producers fan seeded
// Key-Writes out to 1–3 of 4 shards in small chunks, GC off so the pool
// hands released chunks straight back to them, while the sinks check
// each record's payload against its key and yield at random. A chunk
// pooled while a worker still reads it is restaged under that worker:
// a wrong payload here, and a data race under -race.
func TestSharedChunkOutlivesEveryView(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const shards, producers, perProducer = 4, 3, 4000
	var sinks [shards]*payloadSink
	list := make([]Sink, shards)
	for i := range sinks {
		sinks[i] = &payloadSink{rng: rand.New(rand.NewSource(int64(i)))}
		list[i] = sinks[i]
	}
	e := mustEngine(t, list, Config{ChunkFrames: 3, QueueDepth: 4, Batch: 2})
	var wg sync.WaitGroup
	sent := make([][shards]int, producers)
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, rng := e.Submitter(), rand.New(rand.NewSource(int64(100+p)))
			nows := make([]uint64, shards)
			for i := range perProducer {
				key := uint64(p)<<32 | uint64(i)
				set := rng.Perm(shards)[:1+rng.Intn(3)]
				for _, o := range set {
					sent[p][o]++
				}
				if err := sub.SubmitReportFan(set, nows[:len(set)], kwReport(key, payloadOf(key))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := sub.Flush(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for s, sink := range sinks {
		want := 0
		for p := range sent {
			want += sent[p][s]
		}
		if sink.seen != want || len(sink.bad) > 0 {
			t.Fatalf("shard %d saw %d records, want %d; %d wrong payloads %v", s, sink.seen, want, len(sink.bad), sink.bad[:min(3, len(sink.bad))])
		}
	}
}

// planOnlySink plans like a translator at redundancy 2 — two slot
// indexes and an 8-byte operand — and processes nothing.
type planOnlySink struct{ nullSink }

func (planOnlySink) PlanStaged(rec *wire.StagedReport, p *wire.ChunkPlan) {
	start, op := len(p.Slots), len(p.Operands)
	k := uint32(rec.Flags())
	p.Slots = append(p.Slots, k, k+1)
	p.Operands = binary.LittleEndian.AppendUint64(p.Operands, uint64(k))
	p.Planned(wire.PrimKeyWrite, rec.Flags(), start, op)
}

// BenchmarkSubmitReportFan prices the producer side of a replicated
// fan-out over 4 shards: one Key-Write to R of them per op, staged,
// planned and queued, over sinks that plan and do nothing else.
func BenchmarkSubmitReportFan(b *testing.B) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			var sinks [4]planOnlySink
			e, err := New([]Sink{&sinks[0], &sinks[1], &sinks[2], &sinks[3]}, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			sub := e.Submitter()
			rep := kwReport(1, []byte{1, 2, 3, 4})
			var sets [4][]int
			for i := range sets {
				sets[i] = []int{i, (i + 1) % 4, (i + 2) % 4}[:r]
			}
			nows := make([]uint64, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if err := sub.SubmitReportFan(sets[i%4], nows, rep); err != nil {
					b.Fatal(err)
				}
			}
			if err := sub.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := e.Drain(0); err != nil {
				b.Fatal(err)
			}
		})
	}
}
