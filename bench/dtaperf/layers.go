package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dta"
	"dta/internal/crc"
	"dta/internal/engine"
	"dta/internal/ha"
	"dta/internal/rdma"
	"dta/internal/reporter"
	"dta/internal/snapshot"
	"dta/internal/wal"
	"dta/internal/wire"
)

// The isolated layer suite: each layer's public functions timed on their
// own, from outside the package, single-threaded. Every figure is the
// median of layerReps repetitions of a fixed-count loop, scaled by a
// calibration taken just before, like the end-to-end timings. What the
// per-package *_test.go benchmarks time with a b.N loop is timed here
// with fixed work, so two runs do the same thing.

const (
	layerReps = 7
	layerN    = 1 << 16
)

type layerSuite struct {
	values map[string]float64 // speed-corrected
	cal    *calibrator
}

var layerSink uint64

// time runs fn (which performs n operations) layerReps times.
func (l *layerSuite) time(name string, n int, fn func()) {
	speed := l.cal.measure()
	var s [layerReps]float64
	for i := range s {
		t0 := time.Now()
		fn()
		s[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	l.values[name] = median(s[:]) / speed.slowdown()
}

func suiteKeys() []wire.Key {
	r := splitmix64(42)
	keys := make([]wire.Key, layerN)
	for i := range keys {
		keys[i] = wire.KeyFromUint64(r.next() & (keySpace - 1))
	}
	return keys
}

// nullSink is the engine sink that does nothing: what remains is the
// queue itself.
type nullSink struct{ n uint64 }

func (s *nullSink) ProcessFrame([]byte, uint64) error              { return nil }
func (s *nullSink) Flush(uint64) error                             { return nil }
func (s *nullSink) ProcessReport(*wire.Report, uint64) error       { return nil }
func (s *nullSink) ProcessStaged(*wire.StagedReport, uint64) error { s.n++; return nil }

func runLayers() (*layerSuite, error) {
	l := &layerSuite{values: map[string]float64{}, cal: newCalibrator()}
	keys := suiteKeys()
	data := []byte{1, 2, 3, 4}

	// crc.
	fam := crc.MustFamily(2)
	l.time("crc.hash16_ns", layerN, func() {
		var acc uint32
		for i := range keys {
			acc += fam.Hash16(i&1, (*[16]byte)(&keys[i]))
		}
		layerSink += uint64(acc)
	})

	// wire / reporter.
	rep := wire.Report{
		Header:   wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: redundancy, DataLen: uint16(len(data))},
		Data:     data,
	}
	var st wire.StagedReport
	l.time("wire.stage_ns", layerN, func() {
		for i := range keys {
			rep.KeyWrite.Key = keys[i]
			st.Stage(&rep)
		}
	})
	var enc [wire.MaxStagedEncodedLen]byte
	encLen := 0
	l.time("wire.encode_staged_ns", layerN, func() {
		for range keys {
			encLen = st.EncodeTo(enc[:])
		}
	})
	var decErr error
	l.time("wire.decode_staged_ns", layerN, func() {
		var out wire.StagedReport
		for range keys {
			if _, err := wire.DecodeStaged(enc[:encLen], &out); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("layers: decode staged: %w", decErr)
	}
	frameRep := reporter.New(reporter.Config{SwitchID: 1, SrcIP: [4]byte{10, 0, 0, 1}, CollectorIP: [4]byte{10, 255, 0, 1}, SrcPort: 4001})
	frame := make([]byte, wire.MaxReportLen)
	frameLen := 0
	l.time("reporter.encode_frame_ns", layerN, func() {
		for i := range keys {
			frameLen, decErr = frameRep.KeyWrite(frame, keys[i], data, redundancy, false)
		}
	})
	l.time("wire.decode_frame_ns", layerN, func() {
		var pf wire.ParsedFrame
		for range keys {
			if err := wire.DecodeFrame(frame[:frameLen], &pf); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("layers: frame codec: %w", decErr)
	}

	// engine: submit → worker through a sink that does nothing.
	sink := &nullSink{}
	eng, err := engine.New([]engine.Sink{sink}, engine.Config{QueueDepth: engineConfig.QueueDepth, Batch: engineConfig.Batch})
	if err != nil {
		return nil, err
	}
	sub := eng.Submitter()
	var engErr error
	l.time("engine.queue_ns", layerN, func() {
		for i := range keys {
			rep.KeyWrite.Key = keys[i]
			if err := sub.SubmitReport(0, &rep, 0); err != nil {
				engErr = err
			}
		}
		if err := sub.Flush(); err != nil {
			engErr = err
		}
		if err := eng.Drain(0); err != nil {
			engErr = err
		}
	})
	if err := eng.Close(); err != nil || engErr != nil {
		return nil, fmt.Errorf("layers: engine: %v %v", err, engErr)
	}

	// rdma.
	payload := make([]byte, 8)
	pkt := rdma.BuildWrite(make([]byte, 0, 512), 0x11, 1, 0x10000000, 0x1000, payload, false, nil)
	l.time("rdma.build_write_ns", layerN, func() {
		for i := range keys {
			pkt = rdma.BuildWrite(pkt[:0], 0x11, uint32(i), 0x10000000+uint64(i)*8, 0x1000, payload, false, nil)
		}
	})
	l.time("rdma.repatch_ns", layerN, func() {
		for i := range keys {
			rdma.RepatchPSNVA(pkt, uint32(i), 0x10000000+uint64(i)*8)
		}
	})
	{
		dev := rdma.NewDevice()
		mr := dev.RegisterMemory(1 << 22)
		qp := dev.CreateQP(1000)
		psn := uint32(1000)
		pkts := make([][]byte, 4096)
		ack := make([]byte, 0, 64)
		r := splitmix64(7)
		speed := l.cal.measure()
		var s [layerReps]float64
		for i := range s {
			for j := range pkts { // PSNs must be consecutive, so packets are rebuilt (untimed) per repetition
				off := r.next() & (1<<22 - 8) &^ 7
				pkts[j] = rdma.BuildWrite(pkts[j][:0], qp.QPN, psn&0xFFFFFF, mr.Base+off, mr.RKey, payload, false, nil)
				psn++
			}
			t0 := time.Now()
			for _, p := range pkts {
				if _, _, err := dev.Process(p, ack); err != nil {
					return nil, fmt.Errorf("layers: device: %w", err)
				}
			}
			s[i] = float64(time.Since(t0).Nanoseconds()) / float64(len(pkts))
		}
		if dev.Stats.Writes != uint64(layerReps*len(pkts)) {
			return nil, fmt.Errorf("layers: device executed %d of %d writes", dev.Stats.Writes, layerReps*len(pkts))
		}
		l.values["rdma.device_process_ns"] = median(s[:]) / speed.slowdown()
	}

	// ha ring.
	ring := ha.NewRing(haCollectors)
	l.time("ha.owners_ns", layerN, func() {
		var ob [ha.MaxReplicas]int
		for i := range keys {
			layerSink += uint64(len(ring.Owners(keys[i][:], haReplicas, ob[:0])))
		}
	})

	if err := l.translatorAndStores(keys, data); err != nil {
		return nil, err
	}
	return l, l.obsOverhead(keys, data)
}

// translatorAndStores drives one System's translator directly with
// staged reports, one primitive at a time, twice: with the Emit hook as
// the System wired it, and with a hook that discards the packet. The
// second loop is the translator's own time; the difference, per emitted
// packet, is collector.emit_ns (Host.Ingest + HandleAck). A third
// Key-Write loop with a WAL attached gives wal.append_ns the same way —
// no clock is read inside any loop. The filled stores are then queried.
func (l *layerSuite) translatorAndStores(keys []wire.Key, data []byte) error {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	opts := findWorkload("mixed_durable").options
	sys, err := dta.New(opts)
	if err != nil {
		return err
	}
	tr := sys.Translator()
	emit := tr.Emit
	var emits int
	counted := func(pkt []byte) { emits++; emit(pkt) }
	discard := func([]byte) {}

	var rep wire.Report
	var st wire.StagedReport
	var procErr error
	next := 0 // every loop stages fresh indices, so flows and list positions never repeat
	loop := func(stage func(i int)) float64 {
		speed := l.cal.measure()
		var s [layerReps]float64
		for r := range s {
			t0 := time.Now()
			for range keys {
				stage(next)
				next++
				st.Stage(&rep)
				if err := tr.ProcessStaged(&st, 0); err != nil {
					procErr = err
				}
			}
			s[r] = float64(time.Since(t0).Nanoseconds()) / layerN
		}
		return median(s[:]) / speed.slowdown()
	}
	// prim sets the translator's own time for one primitive and returns
	// the loop time with the real hook and the packets emitted per report.
	prim := func(name string, stage func(i int)) (withEmit, emitsPerReport float64) {
		emits = 0
		tr.Emit = counted
		withEmit = loop(stage)
		emitsPerReport = float64(emits) / (layerReps * layerN)
		tr.Emit = discard
		l.values[name] = loop(stage)
		tr.Emit = emit
		return withEmit, emitsPerReport
	}
	stageKW := func(i int) {
		rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite}
		rep.KeyWrite = wire.KeyWrite{Redundancy: redundancy, DataLen: uint16(len(data)), Key: keys[i%layerN]}
		rep.Data = data
	}
	kwWithEmit, kwEmits := prim("translator.kw_ns", stageKW)
	l.values["collector.emit_ns"] = (kwWithEmit - l.values["translator.kw_ns"]) / kwEmits
	prim("translator.ki_ns", func(i int) {
		rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement}
		rep.KeyIncrement = wire.KeyIncrement{Redundancy: redundancy, Key: keys[i%layerN], Delta: 1}
		rep.Data = nil
	})
	prim("translator.pc_ns", func(i int) {
		flow, hop := uint64(i/pathHops), i%pathHops
		rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding}
		rep.Postcard = wire.Postcard{Key: flowKey(flow), Hop: uint8(hop), PathLen: pathHops, Value: pathValue(flow, hop)}
		rep.Data = nil
	})
	var apBuf [8]byte
	prim("translator.ap_ns", func(i int) {
		rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimAppend}
		rep.Append = wire.Append{ListID: uint32(i % apLists), DataLen: 8}
		rep.Data = apEntry(&apBuf, uint8(i%apLists), uint64(i/apLists))
	})

	// The WAL hook: the Key-Write loop again, logged. The log's flusher
	// goroutine runs beside the loop, as it does in deployment.
	if err := sys.WithWAL(walDir, dta.WALPolicy{Mode: dta.WALSyncNone}); err != nil {
		return err
	}
	l.values["wal.append_ns"] = loop(stageKW) - kwWithEmit
	if procErr != nil {
		return fmt.Errorf("layers: translator: %w", procErr)
	}
	if err := sys.Flush(); err != nil {
		return err
	}
	if err := sys.SyncWAL(); err != nil {
		return err
	}
	ws, _ := sys.WALStats()
	l.values["wal.bytes_per_report"] = float64(ws.Bytes) / float64(max(ws.Appends, 1))

	// The sandbox's real fsync: one record, one SyncWAL, on the real file.
	var syncUs [64]float64
	for i := range syncUs {
		stageKW(next)
		next++
		st.Stage(&rep)
		if err := tr.ProcessStaged(&st, 0); err != nil {
			return err
		}
		t0 := time.Now()
		if err := sys.SyncWAL(); err != nil {
			return err
		}
		syncUs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	l.values["wal.fsync_p50_us"] = median(syncUs[:])
	ws, _ = sys.WALStats()

	// Stores, filled by the loops above.
	host := sys.Host()
	var qErr error
	l.time("core.keywrite.query_ns", layerN, func() {
		for i := range keys {
			res, err := host.KeyWriteStore().Query(keys[i], redundancy, 1)
			if err != nil {
				qErr = err
			}
			layerSink += uint64(res.Matches)
		}
	})
	l.time("core.keyincrement.query_ns", layerN, func() {
		for i := range keys {
			c, err := host.KeyIncrementStore().Query(keys[i], redundancy)
			if err != nil {
				qErr = err
			}
			layerSink += c
		}
	})
	l.time("core.postcarding.query_ns", layerN, func() {
		for i := range keys {
			res, err := host.PostcardingStore().Query(flowKey(uint64(i)), redundancy)
			if err != nil {
				qErr = err
			}
			layerSink += uint64(res.ValidChunks)
		}
	})
	if qErr != nil {
		return fmt.Errorf("layers: store query: %w", qErr)
	}
	poller, err := sys.Poller(0)
	if err != nil {
		return err
	}
	l.time("core.appendlist.poll_ns", layerN, func() {
		for range keys {
			layerSink += uint64(poller.Poll()[7])
		}
	})

	// obs, snapshot, log replay.
	l.time("obs.snapshot_ms", 1e6, func() { layerSink += uint64(len(sys.Metrics().Snapshot().Values)) })
	var snap *snapshot.Snapshot
	l.time("snapshot.capture_ms", 1e6, func() { snap = snapshot.Capture(host) })
	var cw countingWriter
	if err := snap.Write(&cw); err != nil {
		return err
	}
	l.values["snapshot.bytes"] = float64(cw)
	if err := sys.CloseWAL(); err != nil {
		return err
	}
	var replayed int
	var replayErr error
	l.time("wal.replay_ns_per_record", int(ws.Appends), func() {
		replayed = 0
		_, replayErr = wal.Replay(walDir, 1, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
			replayed++
			return nil
		})
	})
	if replayErr != nil || uint64(replayed) != ws.Appends {
		return fmt.Errorf("layers: replayed %d of %d records: %v", replayed, ws.Appends, replayErr)
	}
	return nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// obsOverhead compares default telemetry with DisableTelemetry on the
// synchronous Key-Write path, alternating short slices so both sides see
// the same host.
func (l *layerSuite) obsOverhead(keys []wire.Key, data []byte) error {
	opts := findWorkload("kw_ingest").options
	var reps [2]*dta.Reporter
	for i := range reps {
		o := opts
		o.DisableTelemetry = i == 1
		sys, err := dta.New(o)
		if err != nil {
			return err
		}
		reps[i] = sys.Reporter(1)
	}
	var ns [2][]float64
	for round := 0; round < 2*layerReps; round++ {
		for i, rp := range reps {
			t0 := time.Now()
			for k := range keys {
				if err := rp.KeyWrite(keys[k], data, redundancy); err != nil {
					return err
				}
			}
			if round > 0 { // the first round faults the stores in
				ns[i] = append(ns[i], float64(time.Since(t0).Nanoseconds())/layerN)
			}
		}
	}
	on, off := median(ns[0]), median(ns[1])
	l.values["obs.overhead_share"] = (on - off) / off
	return nil
}

// isolated lists the suite's metrics in print order.
var isolated = []string{
	"crc.hash16_ns", "wire.stage_ns", "wire.encode_staged_ns", "wire.decode_staged_ns",
	"reporter.encode_frame_ns", "wire.decode_frame_ns", "engine.queue_ns",
	"translator.kw_ns", "translator.ki_ns", "translator.pc_ns", "translator.ap_ns",
	"rdma.build_write_ns", "rdma.repatch_ns", "rdma.device_process_ns", "collector.emit_ns",
	"core.keywrite.query_ns", "core.keyincrement.query_ns", "core.postcarding.query_ns", "core.appendlist.poll_ns",
	"wal.append_ns", "wal.bytes_per_report", "wal.fsync_p50_us", "wal.replay_ns_per_record",
	"snapshot.capture_ms", "snapshot.bytes", "ha.owners_ns", "obs.snapshot_ms", "obs.overhead_share",
}

func (l *layerSuite) print(w io.Writer) {
	fmt.Fprintf(w, "isolated layer suite (median of %d × %d ops, speed-corrected)\n", layerReps, layerN)
	for _, name := range isolated {
		fmt.Fprintf(w, "%-34s %14.6g\n", name, l.values[name])
	}
}

// budget sums the isolated hot-path layers into a predicted CPU cost per
// report for a workload: per replica, the queue (or, on the synchronous
// path, staging alone), the translator's own time in the workload's
// primitive mix, the emits the workload was seen to make per report, the
// WAL append, and the in-slice lookups' share.
func (l *layerSuite) budget(w *workload, msgsPerReport float64) float64 {
	front := l.values["wire.stage_ns"]
	if w.async {
		front = l.values["engine.queue_ns"]
	}
	names := [numKinds]string{"translator.kw_ns", "translator.ki_ns", "translator.pc_ns", "translator.ap_ns"}
	tr := 0.0
	for _, k := range w.tape.mix {
		tr += l.values[names[k]] / float64(len(w.tape.mix))
	}
	per := front + tr + msgsPerReport*l.values["collector.emit_ns"]
	if w.wal {
		per += l.values["wal.append_ns"]
	}
	if w.readEvery > 0 {
		queries := [numKinds]string{"core.keywrite.query_ns", "core.keyincrement.query_ns", "core.postcarding.query_ns"}
		q := 0.0
		for _, k := range w.tape.mix {
			q += l.values[queries[k]] / float64(len(w.tape.mix))
		}
		per += q / float64(w.readEvery)
	}
	return per * float64(w.replicas())
}
