package translator

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dta/internal/collector"
	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/rdma"
	"dta/internal/wire"
)

// rig wires a collector host and a translator back-to-back: the
// translator's emissions are processed by the host and the resulting
// acks fed straight back.
type rig struct {
	host *collector.Host
	tr   *Translator
}

func values(n int) []uint32 {
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = uint32(i + 1)
	}
	return vs
}

func fullConfig() (collector.Config, Config) {
	kw := keywrite.Config{Slots: 1 << 12, DataSize: 4}
	ki := keyincrement.Config{Slots: 1 << 12}
	pc := postcarding.Config{Chunks: 1 << 10, Hops: 5, Values: values(256)}
	ap := appendlist.Config{Lists: 8, EntriesPerList: 1 << 10, EntrySize: 4}
	ccfg := collector.Config{KeyWrite: &kw, KeyIncrement: &ki, Postcarding: &pc, Append: &ap}
	tcfg := Config{
		KeyWrite: &kw, KeyIncrement: &ki, Postcarding: &pc, Append: &ap,
		PostcardCacheRows: 1 << 10, AppendBatch: 4,
	}
	return ccfg, tcfg
}

func newRig(t testing.TB, ccfg collector.Config, tcfg Config) *rig {
	t.Helper()
	host, err := collector.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(tcfg, host.Listener())
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit, tr.Doorbell = host.Post, host.Doorbell
	return &rig{host: host, tr: tr}
}

func key(v uint64) wire.Key { return wire.KeyFromUint64(v) }

func TestKeyWriteEndToEnd(t *testing.T) {
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	data := []byte{0xde, 0xad, 0xbe, 0xef}
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: 2, Key: key(42)},
		Data:     data,
	}
	if err := r.tr.ProcessReport(&rep, 0); err != nil {
		t.Fatal(err)
	}
	if r.tr.Stats().RDMAWrites != 2 {
		t.Errorf("RDMA writes = %d, want 2 (N=2 multicast)", r.tr.Stats().RDMAWrites)
	}
	res, err := r.host.QueryKeyWrite(key(42), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !bytes.Equal(res.Data, data) {
		t.Errorf("query = %+v", res)
	}
	if res.Matches != 2 {
		t.Errorf("matches = %d, want 2", res.Matches)
	}
}

func TestKeyWriteRedundancyCapped(t *testing.T) {
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: keywrite.MaxRedundancy + 1, Key: key(1)},
		Data:     []byte{1, 2, 3, 4},
	}
	if err := r.tr.ProcessReport(&rep, 0); err != nil {
		t.Fatal(err)
	}
	if r.tr.Stats().RDMAWrites != keywrite.MaxRedundancy {
		t.Errorf("writes = %d, want capped %d", r.tr.Stats().RDMAWrites, keywrite.MaxRedundancy)
	}
}

func TestKeyIncrementEndToEnd(t *testing.T) {
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	for i := 0; i < 3; i++ {
		rep := wire.Report{
			Header:       wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement},
			KeyIncrement: wire.KeyIncrement{Redundancy: 2, Key: key(7), Delta: 10},
		}
		if err := r.tr.ProcessReport(&rep, 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.tr.Stats().RDMAAtomics != 6 {
		t.Errorf("atomics = %d, want 6", r.tr.Stats().RDMAAtomics)
	}
	got, err := r.host.QueryCount(key(7), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Errorf("count = %d, want 30", got)
	}
}

func TestPostcardingEndToEnd(t *testing.T) {
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	x := key(99)
	for hop := 0; hop < 5; hop++ {
		rep := wire.Report{
			Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
			Postcard: wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: uint32(hop + 10)},
		}
		if err := r.tr.ProcessReport(&rep, 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.tr.Stats().PostcardEmits != 1 {
		t.Fatalf("postcard emits = %d, want 1 (aggregated)", r.tr.Stats().PostcardEmits)
	}
	res, err := r.host.QueryPostcards(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Values) != 5 {
		t.Fatalf("query = %+v", res)
	}
	for hop, v := range res.Values {
		if v != uint32(hop+10) {
			t.Errorf("hop %d = %d, want %d", hop, v, hop+10)
		}
	}
}

func TestAppendEndToEndWithBatching(t *testing.T) {
	ccfg, tcfg := fullConfig() // batch = 4
	r := newRig(t, ccfg, tcfg)
	for i := 0; i < 8; i++ {
		var data [4]byte
		binary.BigEndian.PutUint32(data[:], uint32(100+i))
		rep := wire.Report{
			Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
			Append: wire.Append{ListID: 3},
			Data:   data[:],
		}
		if err := r.tr.ProcessReport(&rep, 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.tr.Stats().AppendFlushes != 2 {
		t.Errorf("flushes = %d, want 2 (8 entries / batch 4)", r.tr.Stats().AppendFlushes)
	}
	p, err := r.host.AppendPoller(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got := binary.BigEndian.Uint32(p.Poll())
		if got != uint32(100+i) {
			t.Errorf("poll %d = %d", i, got)
		}
	}
}

func TestAppendPartialFlush(t *testing.T) {
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	rep := wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: 0},
		Data:   []byte{9, 9, 9, 9},
	}
	if err := r.tr.ProcessReport(&rep, 0); err != nil {
		t.Fatal(err)
	}
	if r.tr.Stats().AppendFlushes != 0 {
		t.Fatal("flush before batch complete")
	}
	if err := r.tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r.tr.Stats().AppendFlushes != 1 {
		t.Fatalf("flushes = %d after Flush", r.tr.Stats().AppendFlushes)
	}
	p, _ := r.host.AppendPoller(0)
	if p.Poll()[0] != 9 {
		t.Error("partial flush data missing")
	}
}

func TestDrainPostcards(t *testing.T) {
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	x := key(5)
	// Only 2 of 5 hops arrive.
	for hop := 0; hop < 2; hop++ {
		rep := wire.Report{
			Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
			Postcard: wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: uint32(hop + 1)},
		}
		r.tr.ProcessReport(&rep, 0)
	}
	if err := r.tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	res, _ := r.host.QueryPostcards(x, 1)
	if !res.Found || len(res.Values) != 2 {
		t.Errorf("drained partial path: %+v", res)
	}
}

func TestDrainedMiddleHopLossNeverShiftsPath(t *testing.T) {
	// Regression: a flow whose *middle* postcard was lost must not be
	// answered with the remaining hops compacted into a shorter path —
	// hop values must stay at their true positions, which makes the
	// chunk invalid (blank before a real value) and the query empty.
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	x := key(321)
	for _, hop := range []int{0, 1, 3, 4} { // hop 2 lost in transit
		rep := wire.Report{
			Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
			Postcard: wire.Postcard{Key: x, Hop: uint8(hop), PathLen: 5, Value: uint32(hop + 10)},
		}
		if err := r.tr.ProcessReport(&rep, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	res, err := r.host.QueryPostcards(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("middle-hop loss answered with %v; must be empty", res.Values)
	}
	// A tail loss, by contrast, yields a valid shorter prefix.
	y := key(654)
	for hop := 0; hop < 4; hop++ { // hop 4 lost
		rep := wire.Report{
			Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding},
			Postcard: wire.Postcard{Key: y, Hop: uint8(hop), PathLen: 5, Value: uint32(hop + 20)},
		}
		r.tr.ProcessReport(&rep, 0)
	}
	r.tr.Flush(0)
	resY, _ := r.host.QueryPostcards(y, 1)
	if !resY.Found || len(resY.Values) != 4 || resY.Values[3] != 23 {
		t.Errorf("tail loss prefix: %+v", resY)
	}
}

func TestImmediateFlagRaisesEvent(t *testing.T) {
	ccfg, tcfg := fullConfig()
	r := newRig(t, ccfg, tcfg)
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite, Flags: wire.FlagImmediate},
		KeyWrite: wire.KeyWrite{Redundancy: 1, Key: key(1)},
		Data:     []byte{1, 2, 3, 4},
	}
	if err := r.tr.ProcessReport(&rep, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-r.host.Events:
		if ev.Imm != uint32(wire.PrimKeyWrite) {
			t.Errorf("event imm = %d", ev.Imm)
		}
	default:
		t.Error("no immediate event delivered")
	}
}

func TestRateLimiterDropsAndNACKs(t *testing.T) {
	ccfg, tcfg := fullConfig()
	tcfg.RateLimit = 1000 // 1K ops/s: the burst bucket holds ~1 token
	r := newRig(t, ccfg, tcfg)
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: 1, Key: key(1)},
		Data:     []byte{1, 2, 3, 4},
	}
	// Fire a burst at t=0: only the bucket's initial tokens pass.
	for i := 0; i < 100; i++ {
		r.tr.ProcessReport(&rep, 0)
	}
	if r.tr.Stats().RateDropped == 0 {
		t.Error("no report dropped")
	}
	// After a second of simulated time, tokens replenish.
	before := r.tr.Stats().RDMAWrites
	if err := r.tr.ProcessReport(&rep, 1e9); err != nil {
		t.Fatal(err)
	}
	if r.tr.Stats().RDMAWrites != before+1 {
		t.Error("write did not pass after replenish")
	}
}

func TestDisabledPrimitiveRejected(t *testing.T) {
	kw := keywrite.Config{Slots: 64, DataSize: 4}
	ccfg := collector.Config{KeyWrite: &kw}
	tcfg := Config{KeyWrite: &kw}
	r := newRig(t, ccfg, tcfg)
	rep := wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: 0},
		Data:   []byte{1},
	}
	if err := r.tr.ProcessReport(&rep, 0); err == nil {
		t.Error("append on KW-only translator accepted")
	}
}

func TestMissingRegionFailsConstruction(t *testing.T) {
	kw := keywrite.Config{Slots: 64, DataSize: 4}
	ap := appendlist.Config{Lists: 1, EntriesPerList: 16, EntrySize: 4}
	host, err := collector.New(collector.Config{KeyWrite: &kw})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{KeyWrite: &kw, Append: &ap}, host.Listener())
	if err == nil {
		t.Error("translator built without append region")
	}
}

func TestFig8MemoryInstrumentation(t *testing.T) {
	// The device counts one memory instruction per cache line a WRITE
	// stores and two per FETCH&ADD. Check the Fig. 8 values:
	// KW N=2 → 2.0, Append batch 16 → 1/16 ≈ 0.06.
	ccfg, tcfg := fullConfig()
	tcfg.AppendBatch = 16
	r := newRig(t, ccfg, tcfg)
	const reports = 1600
	for i := 0; i < reports; i++ {
		rep := wire.Report{
			Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
			KeyWrite: wire.KeyWrite{Redundancy: 2, Key: key(uint64(i))},
			Data:     []byte{1, 2, 3, 4},
		}
		r.tr.ProcessReport(&rep, 0)
	}
	if got := memInstrPerReport(r.host.Device(), reports); got != 2.0 {
		t.Errorf("KW mem instr/report = %v, want 2.0", got)
	}

	// Fresh rig for Append.
	r2 := newRig(t, ccfg, tcfg)
	for i := 0; i < reports; i++ {
		rep := wire.Report{
			Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
			Append: wire.Append{ListID: 1},
			Data:   []byte{1, 2, 3, 4},
		}
		r2.tr.ProcessReport(&rep, 0)
	}
	got := memInstrPerReport(r2.host.Device(), reports)
	if got < 0.05 || got > 0.07 {
		t.Errorf("Append mem instr/report = %v, want ≈0.0625", got)
	}
}

// memInstrPerReport is Fig. 8's metric over a device's counters.
func memInstrPerReport(d *rdma.Device, reports int) float64 {
	return float64(d.Stats.WriteLines+2*d.Stats.FetchAdds) / float64(reports)
}

func BenchmarkTranslatorKeyWriteN1(b *testing.B) { benchTranslatorKW(b, 1) }
func BenchmarkTranslatorKeyWriteN2(b *testing.B) { benchTranslatorKW(b, 2) }

func benchTranslatorKW(b *testing.B, n uint8) {
	ccfg, tcfg := fullConfig()
	r := newRig(b, ccfg, tcfg)
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: n, Key: key(0)},
		Data:     []byte{1, 2, 3, 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.KeyWrite.Key = key(uint64(i))
		if err := r.tr.ProcessReport(&rep, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslatorKeyWriteWindow is the ingest mechanism at a
// dtaperf kw_ingest store geometry (2^22 slots, 4-byte data, 32 MiB):
// one op is one 32-record chunk of fresh random Key-Writes (N = 2)
// through ProcessStagedBatch, with the device's pre-touch and doorbell
// wired, so each window's destination lines really miss.
func BenchmarkTranslatorKeyWriteWindow(b *testing.B) {
	kw := keywrite.Config{Slots: 1 << 22, DataSize: 4}
	r := newRig(b, collector.Config{KeyWrite: &kw}, Config{KeyWrite: &kw})
	r.tr.PreTouch = r.host.Device().PreTouch
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: 2},
		Data:     []byte{1, 2, 3, 4},
	}
	recs := make([]wire.StagedReport, batchWindow)
	var x uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			x += 0x9e3779b97f4a7c15 // splitmix64
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			rep.KeyWrite.Key = key(z ^ z>>31)
			recs[j].Stage(&rep)
		}
		if failed, err := r.tr.ProcessStagedBatch(recs, wire.ChunkPlan{}, nil, 0); failed != 0 {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/report")
}

func BenchmarkTranslatorAppendBatch16(b *testing.B) {
	ccfg, tcfg := fullConfig()
	tcfg.AppendBatch = 16
	r := newRig(b, ccfg, tcfg)
	rep := wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: 1},
		Data:   []byte{1, 2, 3, 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.tr.ProcessReport(&rep, 0); err != nil {
			b.Fatal(err)
		}
	}
}
