package translator

import (
	"encoding/binary"
	"testing"

	"dta/internal/collector"
	"dta/internal/wire"
)

func TestThresholdQueryTriggersOverT(t *testing.T) {
	q := NewThresholdQuery(1<<8, 5, 100, 7)
	x := key(1)
	// Per-hop latencies summing to 150 > 100.
	var ev *Event
	for hop := 0; hop < 5; hop++ {
		p := wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: 30}
		got, consumed := q.Offer(&p)
		if !consumed {
			t.Fatal("postcard not consumed")
		}
		if got != nil {
			ev = got
		}
	}
	if ev == nil {
		t.Fatal("no event despite sum 150 > 100")
	}
	if ev.Key != x || ev.Sum != 150 {
		t.Errorf("event = %+v", ev)
	}
	if q.Stats.Triggered != 1 || q.Stats.Completed != 1 {
		t.Errorf("stats = %+v", q.Stats)
	}
}

func TestThresholdQuerySilentUnderT(t *testing.T) {
	q := NewThresholdQuery(1<<8, 5, 1000, 7)
	x := key(2)
	for hop := 0; hop < 5; hop++ {
		p := wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: 30}
		if ev, _ := q.Offer(&p); ev != nil {
			t.Fatalf("event for sum 150 <= 1000: %+v", ev)
		}
	}
	if q.Stats.Completed != 1 || q.Stats.Triggered != 0 {
		t.Errorf("stats = %+v", q.Stats)
	}
}

func TestThresholdQueryShortPath(t *testing.T) {
	q := NewThresholdQuery(1<<8, 5, 50, 7)
	x := key(3)
	// Path length 3 annotated: completes after 3 postcards.
	var ev *Event
	for hop := 0; hop < 3; hop++ {
		p := wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 3, Value: 40}
		if got, _ := q.Offer(&p); got != nil {
			ev = got
		}
	}
	if ev == nil || ev.Sum != 120 {
		t.Fatalf("short path event = %+v", ev)
	}
}

func TestThresholdQueryDuplicateHopCountedOnce(t *testing.T) {
	q := NewThresholdQuery(1<<8, 5, 10, 7)
	x := key(4)
	p := wire.Postcard{Key: x, Hop: 0, PathLen: 5, Value: 100}
	q.Offer(&p)
	q.Offer(&p) // duplicate
	for hop := 1; hop < 5; hop++ {
		pc := wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: 1}
		if ev, _ := q.Offer(&pc); ev != nil {
			if ev.Sum != 104 {
				t.Fatalf("sum = %d, want 104 (duplicate absorbed)", ev.Sum)
			}
			return
		}
	}
	t.Fatal("no event")
}

func TestThresholdQueryEndToEnd(t *testing.T) {
	// Full rig: the query intercepts postcards and ships events over
	// Append; the collector's list carries (flow, sum) entries.
	ccfg, tcfg := fullConfig()
	// Entries must fit key+sum = 24B.
	tcfg.Append.EntrySize = 24
	ccfg.Append.EntrySize = 24
	r := newRig(t, ccfg, tcfg)
	q := NewThresholdQuery(1<<10, 5, 200, 3)
	r.tr.InstallThresholdQuery(q)

	slow := key(100) // sum 250 > 200
	fast := key(200) // sum 50
	for hop := 0; hop < 5; hop++ {
		for _, f := range []struct {
			k wire.Key
			v uint32
		}{{slow, 50}, {fast, 10}} {
			rep := wire.Report{
				Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
				Postcard: wire.Postcard{Key: f.k, Hop: uint8(hop), PathLen: 5, Value: f.v},
			}
			if err := r.process(&rep, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Postcards were consumed by the query, not the Postcarding store.
	if r.tr.Stats().PostcardEmits != 0 {
		t.Errorf("postcard emits = %d, want 0 (query intercepted)", r.tr.Stats().PostcardEmits)
	}
	if err := r.tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	p, err := r.host.AppendPoller(3)
	if err != nil {
		t.Fatal(err)
	}
	e := p.Poll()
	var gotKey wire.Key
	copy(gotKey[:], e[:wire.KeySize])
	gotSum := binary.BigEndian.Uint64(e[wire.KeySize:])
	if gotKey != slow || gotSum != 250 {
		t.Errorf("event entry: key=%v sum=%d", gotKey, gotSum)
	}
}

func TestKIAggregationReducesAtomics(t *testing.T) {
	ccfg, tcfg := fullConfig()
	tcfg.KIAggregationRows = 1 << 8
	r := newRig(t, ccfg, tcfg)
	k := key(5)
	// 100 increments of the same key: all but the flush-resident one
	// are absorbed.
	for i := 0; i < 100; i++ {
		rep := wire.Report{
			Header:       wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
			KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: k, Delta: 3},
		}
		if err := r.process(&rep, 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.tr.Stats().RDMAAtomics != 0 {
		t.Fatalf("atomics before flush = %d, want 0", r.tr.Stats().RDMAAtomics)
	}
	if r.tr.Stats().KIAggregated != 100 {
		t.Errorf("aggregated = %d", r.tr.Stats().KIAggregated)
	}
	if err := r.tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r.tr.Stats().RDMAAtomics != 2 {
		t.Errorf("atomics after flush = %d, want 2 (one aggregate, N=2)", r.tr.Stats().RDMAAtomics)
	}
	got, err := r.host.QueryCount(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 300 {
		t.Errorf("count = %d, want 300 (no delta lost)", got)
	}
}

func TestKIAggregationEvictionPreservesTotals(t *testing.T) {
	ccfg, tcfg := fullConfig()
	tcfg.KIAggregationRows = 4 // tiny: constant evictions
	r := newRig(t, ccfg, tcfg)
	truth := map[uint64]uint64{}
	for i := 0; i < 2000; i++ {
		kv := uint64(i % 37)
		truth[kv] += 2
		rep := wire.Report{
			Header:       wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
			KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: key(kv), Delta: 2},
		}
		if err := r.process(&rep, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	for kv, want := range truth {
		got, _ := r.host.QueryCount(key(kv), 2)
		if got < want {
			t.Fatalf("key %d: %d < truth %d (count-min must not undercount)", kv, got, want)
		}
	}
	// With a 4-row cache and 37 cycling keys almost every insert evicts,
	// so little is saved — but aggregation must never amplify: at most
	// one flush per report plus the drain.
	if max := uint64(2000+37) * 2; r.tr.Stats().RDMAAtomics > max {
		t.Errorf("aggregation amplified traffic: %d atomics > %d", r.tr.Stats().RDMAAtomics, max)
	}
}

func TestKIAggregationBadRows(t *testing.T) {
	ccfg, tcfg := fullConfig()
	tcfg.KIAggregationRows = 100 // not a power of two
	host, err := collector.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tcfg, host.Listener()); err == nil {
		t.Error("non-power-of-two aggregation rows accepted")
	}
}
