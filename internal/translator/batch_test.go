package translator

import (
	"bytes"
	"encoding/binary"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"

	"dta/internal/rdma"
	"dta/internal/wire"
)

// TestAppendFlushSplitsAtRingEnd drives Flush-then-fill across the wrap:
// a partial flush leaves the head off a batch boundary, so a later full
// batch straddles the ring end. It must land as head-at-the-end plus
// tail-at-the-start of ITS list — on the first list a single WRITE would
// spill into list 1, on the last list it would run off the region and
// the collector would reject the packet.
func TestAppendFlushSplitsAtRingEnd(t *testing.T) {
	ccfg, tcfg := fullConfig() // 8 lists × 1024 entries × 4B, batch 4
	ring := ccfg.Append.EntriesPerList
	for _, list := range []int{0, ccfg.Append.Lists - 1} {
		r := newRig(t, ccfg, tcfg)
		next := uint32(0)
		add := func() {
			t.Helper()
			next++
			var data [4]byte
			binary.BigEndian.PutUint32(data[:], next)
			rep := wire.Report{
				Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
				Append: wire.Append{ListID: uint32(list)},
				Data:   data[:],
			}
			if err := r.tr.ProcessReport(&rep, 0); err != nil {
				t.Fatal(err)
			}
		}
		add() // one entry, force it out: head = 1, off the batch grid
		if err := r.tr.Flush(0); err != nil {
			t.Fatal(err)
		}
		for int(next) < ring+3 { // the batch holding entries ring-2..ring+1 wraps
			add()
		}
		if err := r.tr.Flush(0); err != nil {
			t.Fatal(err)
		}
		store := r.host.AppendStore()
		// Entry k (1-based value) sits at index (k-1) mod ring; the first
		// three slots were overwritten by the wrapped tail.
		for idx := 0; idx < ring; idx++ {
			want := uint32(idx + 1)
			if idx < 3 {
				want = uint32(ring + idx + 1)
			}
			if got := binary.BigEndian.Uint32(store.Entry(list, idx)); got != want {
				t.Fatalf("list %d entry %d = %d, want %d", list, idx, got, want)
			}
		}
		// Nothing leaked into the neighbours.
		for l := 0; l < ccfg.Append.Lists; l++ {
			if l == list {
				continue
			}
			if got := binary.BigEndian.Uint32(store.Entry(l, 0)); got != 0 {
				t.Fatalf("list %d wrote into list %d (entry 0 = %d)", list, l, got)
			}
		}
		if st := r.host.Device().Stats; st.AccessErrs != 0 {
			t.Fatalf("list %d: collector faulted %d writes", list, st.AccessErrs)
		}
	}
}

// mixedChunk stages one record of each primitive per four slots.
func mixedChunk(n int, base uint64) []wire.StagedReport {
	recs := make([]wire.StagedReport, n)
	for i := range recs {
		k := base + uint64(i)
		var rep wire.Report
		switch i % 4 {
		case 0:
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
				KeyWrite: wire.KeyWrite{Redundancy: 2, Key: key(k)}, Data: []byte{byte(k), 2, 3, 4}}
		case 1:
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
				KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: key(k % 64), Delta: k%5 + 1}}
		case 2:
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
				Postcard: wire.Postcard{Key: key(k / 20), Hop: uint8(k / 4 % 5), PathLen: 5, Value: uint32(k%256) + 1}}
		case 3:
			rep = wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
				Append: wire.Append{ListID: uint32(k % 8)}, Data: []byte{byte(k >> 8), byte(k), 0, 1}}
		}
		recs[i].Stage(&rep)
	}
	return recs
}

// planAtStaging is what an engine submitter makes of recs: one PlanStaged
// per record into p, which is recycled from chunk to chunk.
func planAtStaging(tr *Translator, recs []wire.StagedReport, p *wire.ChunkPlan) wire.ChunkPlan {
	p.Reset()
	for i := range recs {
		tr.PlanStaged(&recs[i], p)
	}
	return *p
}

// TestBatchPreTouchOnlyReads pins stages A and B as invisible: the same
// chunks through a translator with the device's pre-touch wired and one
// without it leave byte-identical stores and counters, and pre-touch is
// asked for exactly the addresses the craft stage then writes. The plain
// translator plans in place, the touched one is handed plans made at
// staging, so the two ways into stage A are pinned against each other
// too.
func TestBatchPreTouchOnlyReads(t *testing.T) {
	ccfg, tcfg := fullConfig()
	plain, touched := newRig(t, ccfg, tcfg), newRig(t, ccfg, tcfg)
	var asked, written []uint64
	dev := touched.host.Device()
	touched.tr.PreTouch = func(rkey uint32, vas []uint64, length int) {
		asked = append(asked, vas...)
		dev.PreTouch(rkey, vas, length)
	}
	emit := touched.tr.Emit
	touched.tr.Emit = func(wqe []byte) {
		var p rdma.Packet
		if err := rdma.DecodeWQE(wqe, &p); err != nil {
			t.Fatal(err)
		}
		switch {
		case p.BTH.Opcode == rdma.OpFetchAdd:
			written = append(written, p.AtomicETH.VA)
		case p.RETH.RKey == touched.tr.kwReg.RKey:
			written = append(written, p.RETH.VA)
		}
		emit(wqe)
	}
	var recycled wire.ChunkPlan
	for c := 0; c < 40; c++ {
		recs := mixedChunk(1+c%(2*batchWindow), uint64(c)*100)
		for _, r := range []*rig{plain, touched} {
			var plan wire.ChunkPlan
			if r == touched {
				plan = planAtStaging(r.tr, recs, &recycled)
			}
			if failed, err := r.tr.ProcessStagedBatch(recs, plan, nil, 0); failed != 0 {
				t.Fatalf("chunk %d: %d records failed: %v", c, failed, err)
			}
		}
	}
	if len(asked) == 0 {
		t.Fatal("pre-touch never ran")
	}
	// Per window the touch list is grouped by region while writes follow
	// record order, so compare as multisets.
	count := func(vas []uint64) map[uint64]int {
		m := make(map[uint64]int)
		for _, va := range vas {
			m[va]++
		}
		return m
	}
	a, w := count(asked), count(written)
	if len(a) != len(w) {
		t.Fatalf("pre-touched %d distinct addresses, wrote %d", len(a), len(w))
	}
	for va, n := range w {
		if a[va] != n {
			t.Fatalf("address %#x written %d×, pre-touched %d×", va, n, a[va])
		}
	}
	for _, r := range []*rig{plain, touched} {
		if err := r.tr.Flush(0); err != nil {
			t.Fatal(err)
		}
	}
	if plain.tr.Stats() != touched.tr.Stats() {
		t.Errorf("stats diverge:\n plain   %+v\n touched %+v", plain.tr.Stats(), touched.tr.Stats())
	}
	for name, bufs := range map[string][2][]byte{
		"keywrite":     {plain.host.KeyWriteStore().Buffer(), touched.host.KeyWriteStore().Buffer()},
		"keyincrement": {plain.host.KeyIncrementStore().Buffer(), touched.host.KeyIncrementStore().Buffer()},
		"postcarding":  {plain.host.PostcardingStore().Buffer(), touched.host.PostcardingStore().Buffer()},
		"append":       {plain.host.AppendStore().Buffer(), touched.host.AppendStore().Buffer()},
	} {
		if !bytes.Equal(bufs[0], bufs[1]) {
			t.Errorf("%s store differs with pre-touch wired", name)
		}
	}
}

// TestProcessStagedBatchZeroAllocs pins the chunk entry — address
// generation, pre-touch, craft/emit and the counter publish — and the
// epoch flush at zero allocations in the steady state, for all four
// primitives with Key-Increment aggregation on: postcard emits, append
// flushes and the three drains hand back scratch their owners keep.
func TestProcessStagedBatchZeroAllocs(t *testing.T) {
	ccfg, tcfg := fullConfig()
	tcfg.KIAggregationRows = 16 // 64 distinct keys: evictions and absorptions
	r := newRig(t, ccfg, tcfg)
	r.tr.PreTouch = r.host.Device().PreTouch
	recs := mixedChunk(4*batchWindow+10, 0) // four windows and a bit
	var plan wire.ChunkPlan
	planned := false
	epoch := func() {
		// Alternate the two ways into stage A: planned in place, and
		// planned as a submitter does it, into a recycled array.
		var p wire.ChunkPlan
		if planned = !planned; planned {
			p = planAtStaging(r.tr, recs, &plan)
		}
		if failed, err := r.tr.ProcessStagedBatch(recs, p, nil, 0); failed != 0 {
			t.Fatal(err)
		}
		if err := r.tr.Flush(0); err != nil {
			t.Fatal(err)
		}
	}
	epoch() // warm-up: stashes, drain scratch
	epoch() // and the plan array
	before := r.tr.Stats()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(500, epoch)
	if allocs != 0 {
		t.Fatalf("ProcessStagedBatch + epoch flush allocated %.2f per chunk, want 0", allocs)
	}
	st := r.tr.Stats()
	if st.PostcardEmits == before.PostcardEmits || st.AppendFlushes == before.AppendFlushes || st.KIAggregated == before.KIAggregated {
		t.Fatalf("chunk did not exercise every emit path: %+v", st)
	}
}

// TestPlanIgnoresSlotHistory is TestStageIgnoresSlotHistory for the plan
// array: a chunk's plan is recycled with the chunk, so every entry must
// be written whole whether or not its record is planned. A recycled
// array last used by a chunk of redundancy-8 Key-Writes is planned over
// with mixed primitives; the result must equal a fresh array's, entry for
// entry, and drive the translator to the same packets as planning in
// place — a postcard or an append sitting where a Key-Write's entry was
// must not inherit its slots.
func TestPlanIgnoresSlotHistory(t *testing.T) {
	ccfg, tcfg := fullConfig()
	inPlace, staged := newRig(t, ccfg, tcfg), newRig(t, ccfg, tcfg)
	var packets [2][][]byte
	for i, r := range []*rig{inPlace, staged} {
		emit := r.tr.Emit
		r.tr.Emit = func(pkt []byte) {
			packets[i] = append(packets[i], append([]byte(nil), pkt...))
			emit(pkt)
		}
	}
	wide := make([]wire.StagedReport, 2*batchWindow)
	for i := range wide {
		rep := wire.Report{Header: wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
			KeyWrite: wire.KeyWrite{Redundancy: 8, Key: key(uint64(9000 + i))}, Data: []byte{9, 9, 9, 9}}
		wide[i].Stage(&rep)
	}
	var recycled wire.ChunkPlan
	for round := 0; round < 6; round++ {
		planAtStaging(staged.tr, wide, &recycled) // the array's previous life
		for i := range recycled.Recs[:cap(recycled.Recs)] {
			recycled.Recs[:cap(recycled.Recs)][i].N = 8 // and worse than it could be
		}
		recs := mixedChunk(batchWindow+round*7, uint64(round)*1000)
		var fresh wire.ChunkPlan
		want, got := planAtStaging(staged.tr, recs, &fresh), planAtStaging(staged.tr, recs, &recycled)
		if len(got.Recs) != len(recs) || len(got.Recs) != len(want.Recs) {
			t.Fatalf("round %d: %d plan entries for %d records (fresh array: %d)", round, len(got.Recs), len(recs), len(want.Recs))
		}
		for i := range recs {
			planned := recs[i].Primitive() == wire.PrimKeyWrite || recs[i].Primitive() == wire.PrimKeyIncrement
			if got.Recs[i] != want.Recs[i] || (got.Recs[i].N > 0) != planned {
				t.Fatalf("round %d record %d (%v): recycled entry %+v, fresh %+v", round, i, recs[i].Primitive(), got.Recs[i], want.Recs[i])
			}
			if !slices.Equal(got.SlotsOf(i), want.SlotsOf(i)) {
				t.Fatalf("round %d record %d: recycled slots %v, fresh %v", round, i, got.SlotsOf(i), want.SlotsOf(i))
			}
		}
		if failed, err := inPlace.tr.ProcessStagedBatch(recs, wire.ChunkPlan{}, nil, 0); failed != 0 {
			t.Fatal(err)
		}
		if failed, err := staged.tr.ProcessStagedBatch(recs, got, nil, 0); failed != 0 {
			t.Fatal(err)
		}
	}
	if len(packets[0]) == 0 || len(packets[0]) != len(packets[1]) {
		t.Fatalf("%d packets planned in place, %d planned at staging", len(packets[0]), len(packets[1]))
	}
	for i := range packets[0] {
		if !bytes.Equal(packets[0][i], packets[1][i]) {
			t.Fatalf("packet %d differs between planning in place and at staging", i)
		}
	}
}

// TestMisalignedPlanIsIgnored: a plan that does not run parallel to the
// records (a sink handed a chunk it did not plan) is not trusted — the
// chunk is planned in place.
func TestMisalignedPlanIsIgnored(t *testing.T) {
	ccfg, tcfg := fullConfig()
	a, b := newRig(t, ccfg, tcfg), newRig(t, ccfg, tcfg)
	recs := mixedChunk(batchWindow, 0)
	var p wire.ChunkPlan
	short := planAtStaging(a.tr, recs[:batchWindow-1], &p)
	if failed, err := a.tr.ProcessStagedBatch(recs, short, nil, 0); failed != 0 {
		t.Fatal(err)
	}
	if failed, err := b.tr.ProcessStagedBatch(recs, wire.ChunkPlan{}, nil, 0); failed != 0 {
		t.Fatal(err)
	}
	if !bytes.Equal(a.host.KeyWriteStore().Buffer(), b.host.KeyWriteStore().Buffer()) ||
		!bytes.Equal(a.host.KeyIncrementStore().Buffer(), b.host.KeyIncrementStore().Buffer()) {
		t.Fatal("a misaligned plan changed what was written")
	}
}

// TestDoorbellsPerChunk pins the doorbell as the translator's one
// publication point: a chunk rings once per window, a ring with nothing
// posted skips the doorbell, and the log publishes at every ring — so a
// chunk that only stashes, or an empty epoch flush, publishes without a
// doorbell. log holds "D<emits posted since the last doorbell>" per
// doorbell and "P" per log publication, in order.
func TestDoorbellsPerChunk(t *testing.T) {
	ccfg, tcfg := fullConfig() // Append batch 4: three appends only stash
	r := newRig(t, ccfg, tcfg)
	var log []string
	emits := 0
	emit, doorbell := r.tr.Emit, r.tr.Doorbell
	r.tr.Emit = func(wqe []byte) { emits++; emit(wqe) }
	r.tr.Doorbell = func() (rdma.Completion, error) {
		log = append(log, "D"+strconv.Itoa(emits))
		emits = 0
		return doorbell()
	}
	r.tr.WALPublish = func() { log = append(log, "P") }

	chunk := func(n int, prim wire.Primitive) []wire.StagedReport {
		recs := make([]wire.StagedReport, n)
		for i := range recs {
			rep := wire.Report{Header: wire.Header{Version: wire.Version, Primitive: prim},
				KeyWrite: wire.KeyWrite{Redundancy: 2, Key: key(uint64(i))},
				Append:   wire.Append{ListID: 3}, Data: []byte{byte(i), 2, 3, 4}}
			recs[i].Stage(&rep)
		}
		return recs
	}
	for _, tc := range []struct {
		name string
		recs []wire.StagedReport
		want []string
	}{
		{"kw1", chunk(1, wire.PrimKeyWrite), []string{"D2", "P"}},
		{"kw32", chunk(32, wire.PrimKeyWrite), []string{"D64", "P"}},
		{"kw40", chunk(40, wire.PrimKeyWrite), []string{"D64", "P", "D16", "P"}},
		{"append3", chunk(3, wire.PrimAppend), []string{"P"}},
	} {
		log = log[:0]
		if failed, err := r.tr.ProcessStagedBatch(tc.recs, wire.ChunkPlan{}, nil, 0); failed != 0 {
			t.Fatalf("%s: %d failed: %v", tc.name, failed, err)
		}
		if !slices.Equal(log, tc.want) {
			t.Errorf("%s: rings %v, want %v", tc.name, log, tc.want)
		}
	}
	// The stashed appends go out at the epoch flush, under one doorbell;
	// a second, empty flush still publishes but rings no doorbell.
	for _, want := range [][]string{{"D1", "P"}, {"P"}} {
		log = log[:0]
		if err := r.tr.Flush(0); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(log, want) {
			t.Errorf("flush: rings %v, want %v", log, want)
		}
	}
}
