package dta

import (
	"fmt"
	"math"

	"dta/internal/engine"
	"dta/internal/ha"
	"dta/internal/obs/trace"
	"dta/internal/wire"
)

// Reporter is a handle for one reporting switch. Each method
// encapsulates one report, validates it once and routes it the way the
// handle was attached (§5.1, §7): into one System, to every live owner
// of its key in an HACluster (the one owner at R = 1), or, from an
// Engine, staged by value once into a chunk the owning shards read. Not
// goroutine-safe: the staging state is per-handle. Create one per
// producer goroutine; they are cheap.
type Reporter struct {
	switchID uint32
	// sys is the one collector a non-replicated handle reports to. An HA
	// handle reads its cluster's member list instead, which AddCollector
	// may grow.
	sys *System
	hac *HACluster        // replicated fan-out to every live owner
	sub *engine.Submitter // engine handles: stage into an engine chunk

	// frame.Report is the scratch report the typed methods fill (only
	// the active sub-header) and SubmitFrame decodes into; a synchronous
	// route snapshots it into staged for its collector(s). staged is an
	// array of one so that a traced record is a one-record chunk as it
	// stands (deliverTraced).
	frame  wire.ParsedFrame
	staged [1]wire.StagedReport

	// smp is this reporter's trace sampling counter: caller-local so the
	// sampled-out fast path touches no shared cache line.
	smp trace.Sampler
}

// send validates rep and routes it.
func (r *Reporter) send(rep *wire.Report) error {
	if err := rep.Validate(); err != nil {
		return err
	}
	if r.hac != nil {
		return r.fan(rep)
	}
	sys := r.sys
	if r.sub != nil {
		return r.sub.SubmitReport(0, rep, sys.Now())
	}
	r.staged[0].Stage(rep)
	if t := sys.trc; t != nil && t.Candidate(&r.smp) {
		return r.deliverTraced(sys, t)
	}
	return sys.tr.ProcessStaged(&r.staged[0], sys.Now())
}

// fan is the software form of the paper's multicast translation: the
// report is staged once and the staged record goes to every live owner
// of its key (or Append list) — members plan alike, attach checked.
// Down owners are skipped with a counter, never an error: a report is
// acknowledged while one owner is live and counted lost otherwise. An
// Append is stamped with the set of owners it went to, which is what
// log-shipping resync replays by (see HACluster.appendOpsFrom).
func (r *Reporter) fan(rep *wire.Report) error {
	h := r.hac
	var ob, live [ha.MaxReplicas]int
	owners := h.ownersOf(rep, ob[:0])
	// Decide the skip set for ALL owners before the first write. This
	// ordering is what makes the bump-before-flag epoch fence (SetDown
	// and PartitionReporter alike) airtight: if any owner reads as
	// unreachable here, the fence's epoch bump already happened, so
	// every block this fan-out subsequently tags — on any replica —
	// carries an epoch inside the skipped owner's replay window.
	// (Interleaving checks with writes would let a write tag a surviving
	// peer just below the window and then skip the victim, silently
	// escaping the incremental resync.)
	var nows [ha.MaxReplicas]uint64
	n := 0
	for _, o := range owners {
		if !h.unreachable(o) {
			live[n], nows[n] = o, h.systems[o].Now()
			n++
		}
	}
	var err error
	if r.sub != nil {
		// Staged, planned and stamped once; each owner's view names it.
		err = r.sub.SubmitReportFan(live[:n], nows[:n], rep)
	} else {
		r.staged[0].Stage(rep)
		r.staged[0].SetRecipients(live[:n])
		for i, o := range live[:n] {
			sys := h.systems[o]
			if t := sys.trc; t != nil && t.Candidate(&r.smp) {
				err = r.deliverTraced(sys, t)
			} else {
				err = sys.tr.ProcessStaged(&r.staged[0], nows[i])
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	h.health.RecordWrite(n, len(owners))
	return nil
}

// deliverTraced is the sampled-candidate synchronous delivery path: the
// staged record goes to the translator as a chunk of one whose handle
// prefix is the candidate's handle. Kept out of line so the common path
// never materialises a trace Handle: holding the two-word handle live
// across the translator call costs registers — a few ns per report,
// traced or not — which the <3% telemetry overhead gate has no room for.
//
//go:noinline
func (r *Reporter) deliverTraced(sys *System, t *trace.Tracer) error {
	h := [1]trace.Handle{t.BeginCandidate()}
	h[0].Stamp(trace.StSubmit)
	_, err := sys.tr.ProcessStagedBatch(r.staged[:], wire.ChunkPlan{}, h[:], sys.Now())
	h[0].Finish()
	return err
}

// Flush queues an engine handle's staged chunk. Producers must call it
// (on their own goroutine) before the engine's Drain or Close covers
// their reports. A synchronous handle stages nothing: Flush is a no-op.
func (r *Reporter) Flush() error {
	if r.sub == nil {
		return nil
	}
	return r.sub.Flush()
}

// SubmitFrame is the ingest edge for wire frames: it decodes one
// Ethernet/IPv4/UDP/DTA frame and routes the report it carries exactly
// as the typed methods would, so collectors and engines carry staged
// records only. A frame not addressed to the DTA port returns ErrNotDTA.
func (r *Reporter) SubmitFrame(frame []byte) error {
	if err := wire.DecodeFrame(frame, &r.frame); err != nil {
		return err
	}
	if !r.frame.IsDTA {
		return ErrNotDTA
	}
	return r.send(&r.frame.Report)
}

// SubmitDatagram is SubmitFrame for a bare DTA payload — base header,
// sub-header and data — whose L2–L4 a socket already stripped: the edge
// of a collector that receives reports as UDP datagrams (dtacollect).
func (r *Reporter) SubmitDatagram(b []byte) error {
	if err := wire.DecodeReport(b, &r.frame.Report); err != nil {
		return err
	}
	return r.send(&r.frame.Report)
}

// checkRedundancy refuses a redundancy the one-byte wire field cannot
// carry, before it is narrowed.
func checkRedundancy(n int) error {
	if n < 1 || n > math.MaxUint8 {
		return fmt.Errorf("dta: redundancy %d outside [1,%d]", n, math.MaxUint8)
	}
	return nil
}

// KeyWrite stores data under key with redundancy n.
func (r *Reporter) KeyWrite(key Key, data []byte, n int) error {
	if err := checkRedundancy(n); err != nil {
		return err
	}
	rep := &r.frame.Report
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite}
	rep.KeyWrite = wire.KeyWrite{Redundancy: uint8(n), DataLen: uint16(len(data)), Key: key}
	rep.Data = data
	return r.send(rep)
}

// KeyWriteImmediate is KeyWrite with the immediate flag set, raising a
// push notification at the collector(s) the report reaches.
func (r *Reporter) KeyWriteImmediate(key Key, data []byte, n int) error {
	if err := checkRedundancy(n); err != nil {
		return err
	}
	rep := &r.frame.Report
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyWrite, Flags: wire.FlagImmediate}
	rep.KeyWrite = wire.KeyWrite{Redundancy: uint8(n), DataLen: uint16(len(data)), Key: key}
	rep.Data = data
	return r.send(rep)
}

// Append adds data to the tail of list.
func (r *Reporter) Append(list uint32, data []byte) error {
	rep := &r.frame.Report
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimAppend}
	rep.Append = wire.Append{ListID: list, DataLen: uint16(len(data))}
	rep.Data = data
	return r.send(rep)
}

// Increment adds delta to key's counter with redundancy n.
func (r *Reporter) Increment(key Key, delta uint64, n int) error {
	if err := checkRedundancy(n); err != nil {
		return err
	}
	rep := &r.frame.Report
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimKeyIncrement}
	rep.KeyIncrement = wire.KeyIncrement{Redundancy: uint8(n), Key: key, Delta: delta}
	rep.Data = nil
	return r.send(rep)
}

// Postcard reports this switch's observation of hop of the packet/flow
// identified by key, carrying the switch ID as the value (path tracing).
func (r *Reporter) Postcard(key Key, hop, pathLen int) error {
	return r.PostcardValue(key, hop, pathLen, r.switchID)
}

// PostcardValue reports an arbitrary per-hop value (e.g. queueing
// latency) for the packet/flow identified by key. hop and pathLen are
// one byte each on the wire; pathLen 0 leaves the path unannotated.
func (r *Reporter) PostcardValue(key Key, hop, pathLen int, value uint32) error {
	if hop < 0 || hop > math.MaxUint8 || pathLen < 0 || pathLen > math.MaxUint8 {
		return fmt.Errorf("dta: postcard hop %d, path length %d outside [0,%d]", hop, pathLen, math.MaxUint8)
	}
	rep := &r.frame.Report
	rep.Header = wire.Header{Version: wire.Version, Primitive: wire.PrimPostcarding}
	rep.Postcard = wire.Postcard{Key: key, Hop: uint8(hop), PathLen: uint8(pathLen), Value: value}
	rep.Data = nil
	return r.send(rep)
}

// routeKey is the key rep is routed by; an Append goes by its list
// instead.
func routeKey(rep *wire.Report) *Key {
	switch rep.Header.Primitive {
	case wire.PrimKeyIncrement:
		return &rep.KeyIncrement.Key
	case wire.PrimPostcarding:
		return &rep.Postcard.Key
	}
	return &rep.KeyWrite.Key
}
