// Package translator implements the DTA translator: the last-hop switch
// in front of the collector that converts lightweight DTA reports into
// standard RDMA verbs (Fig. 6 of the paper).
//
// The pipeline mirrors the Tofino implementation's stages:
//
//	primitive processing → multicast redundancy → verb crafting →
//	rate limiting → emit
//
// Key-Write and Key-Increment hash the key into N slot addresses and
// replicate the operation N ways (the multicast engine in hardware).
// Postcarding aggregates postcards in an SRAM cache and emits chunk-sized
// WRITEs. Append stashes entries and emits batch WRITEs. All primitives
// share the RDMA crafting logic: per-connection PSN tracking, queue-pair
// resynchronisation on NAK, and a token-bucket rate limiter that protects
// the collector NIC during congestion (§5.2): a report it sheds is
// counted and journalled, nothing more. The collector device shares the
// process, so the verbs are posted as work-queue entries, not as RoCEv2
// packets: none would cross a wire. The translator owns the send queue
// (SendQueue), as a requester does: each operation is built in place at
// its tail as one entry carrying all N replica addresses
// (rdma.SendQueue.WriteWQE, FetchAddWQE), and Emit commits it there. The
// doorbell (ring) is the one publication point: it hands the queue to
// the collector device to execute, publishes the log and the counters,
// and stamps the traces.
//
// Address generation runs where a record is staged (PlanStaged), and its
// plan — slot indexes, flags and operand (a Key-Write's slot image, a
// Key-Increment's delta) — is all that crafting a planned record reads:
// the shard worker never touches the record itself unless a WAL logs it.
package translator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
	"dta/internal/rdma"
	"dta/internal/wire"
)

// Config assembles the translator's per-primitive configuration. Any
// primitive may be left disabled (nil geometry) to save resources (§6.4).
type Config struct {
	// KeyWrite is the Key-Write store geometry, or nil.
	KeyWrite *keywrite.Config
	// KeyIncrement is the Key-Increment store geometry, or nil.
	KeyIncrement *keyincrement.Config
	// Postcarding is the Postcarding store geometry, or nil.
	Postcarding *postcarding.Config
	// PostcardCacheRows sizes the aggregation cache (32K in the paper).
	PostcardCacheRows int
	// Append is the Append store geometry, or nil.
	Append *appendlist.Config
	// AppendBatch is the Append batching factor (16 in the evaluation;
	// 1 disables batching).
	AppendBatch int
	// PostcardRedundancy is the chunk redundancy N for Postcarding
	// (0 or 1 = single chunk, as in Fig. 14).
	PostcardRedundancy int
	// KIAggregationRows enables translator-side Key-Increment
	// pre-aggregation (§4 "Extensibility": aggregating counters at the
	// translator to decrease the collection load): deltas for the same
	// key accumulate in a small cache and flush as one FETCH&ADD on
	// eviction. 0 disables; otherwise a power of two.
	KIAggregationRows int
	// RateLimit caps emitted RDMA messages per second; 0 disables.
	RateLimit float64
}

// Stats counts translator activity. It is a snapshot view over the
// translator's obs counters: the same atomic cells back this struct and
// the Prometheus exposition, so the two can never disagree.
type Stats struct {
	Reports       uint64 // DTA reports processed
	ParseErrors   uint64
	RDMAWrites    uint64
	RDMAAtomics   uint64
	RDMACrafts    uint64 // work-queue entries built, one per operation
	RDMARepatches uint64 // multicast replicas 2..N an entry carries (a PSN and an address each)
	RateDropped   uint64 // reports dropped by the rate limiter
	Resyncs       uint64 // queue-pair resynchronisations
	PostcardEmits uint64
	AppendFlushes uint64
	KIAggregated  uint64 // Key-Increment reports absorbed by pre-aggregation
}

// counters is the live metric storage behind Stats. The translator is
// single-threaded by contract, so every cell is a single-writer padded
// obs.Counter; exposition and Stats() readers load them concurrently
// without coordination. Reports is kept per-primitive (the exposition's
// primitive label) and summed for the Stats view. The per-report cells
// are fed through pending, the rare ones (errors, sheds, resyncs)
// directly.
type counters struct {
	kwReports  *obs.Counter
	kiReports  *obs.Counter
	pcReports  *obs.Counter
	apReports  *obs.Counter
	unkReports *obs.Counter

	parseErrors   *obs.Counter
	rdmaWrites    *obs.Counter
	rdmaAtomics   *obs.Counter
	crafts        *obs.Counter
	repatches     *obs.Counter
	rateDropped   *obs.Counter
	resyncs       *obs.Counter
	postcardEmits *obs.Counter
	appendFlushes *obs.Counter
	kiAggregated  *obs.Counter

	// Per-stage latency of traced reports only (nil histograms when
	// unobserved): an untraced report reads no clock for them.
	reportNs *obs.Histogram
	emitNs   *obs.Histogram
}

// pending holds the per-report counters of the call in progress as plain
// integers: a locked add per report per counter is measurable on the hot
// path, so the craft stage counts here and every doorbell (ring)
// publishes the totals with one Add per touched counter, just before
// the device executes the verbs they count. Every entry point ends with
// a ring, so readers see exact values whenever the translator is
// between calls; a scrape racing a call sees the counts at most one
// window ahead of the stores.
type pending struct {
	kwReports, kiReports, pcReports, apReports uint64

	rdmaWrites, rdmaAtomics, crafts, repatches uint64
	postcardEmits, appendFlushes, kiAggregated uint64
}

func publishCount(c *obs.Counter, v *uint64) {
	if *v != 0 {
		c.Add(*v)
		*v = 0
	}
}

func newCounters(sc *obs.Scope) counters {
	prim := func(p string) *obs.Scope { return sc.With(obs.L("primitive", p)) }
	return counters{
		kwReports:  prim("key_write").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		kiReports:  prim("key_increment").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		pcReports:  prim("postcarding").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		apReports:  prim("append").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		unkReports: prim("unknown").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),

		parseErrors:   sc.Counter("dta_translator_parse_errors_total", "Reports the translator could not parse (unknown primitive)."),
		rdmaWrites:    sc.Counter("dta_rdma_writes_total", "RDMA WRITEs posted."),
		rdmaAtomics:   sc.Counter("dta_rdma_atomics_total", "RDMA FETCH&ADDs posted."),
		crafts:        sc.Counter("dta_rdma_crafts_total", "Work-queue entries built, one per operation."),
		repatches:     sc.Counter("dta_rdma_repatches_total", "Multicast replicas 2..N carried by a built work-queue entry."),
		rateDropped:   sc.Counter("dta_rate_dropped_total", "Reports shed by the token-bucket rate limiter."),
		resyncs:       sc.Counter("dta_resyncs_total", "Queue-pair resynchronisations after NAK-sequence."),
		postcardEmits: sc.Counter("dta_postcard_emits_total", "Aggregated postcard chunks emitted."),
		appendFlushes: sc.Counter("dta_append_flushes_total", "Append batch flushes emitted."),
		kiAggregated:  sc.Counter("dta_ki_aggregated_total", "Key-Increment reports absorbed by translator-side pre-aggregation."),

		reportNs: sc.Histogram("dta_translator_report_ns", "End-to-end report processing nanoseconds (traced reports only)."),
		emitNs:   sc.Histogram("dta_rdma_emit_ns", "Work-queue entry build+post nanoseconds per primitive operation, doorbell excluded (traced reports only)."),
	}
}

// snapshot materialises the public Stats view.
func (c *counters) snapshot() Stats {
	return Stats{
		Reports: c.kwReports.Load() + c.kiReports.Load() + c.pcReports.Load() +
			c.apReports.Load() + c.unkReports.Load(),
		ParseErrors:   c.parseErrors.Load(),
		RDMAWrites:    c.rdmaWrites.Load(),
		RDMAAtomics:   c.rdmaAtomics.Load(),
		RDMACrafts:    c.crafts.Load(),
		RDMARepatches: c.repatches.Load(),
		RateDropped:   c.rateDropped.Load(),
		Resyncs:       c.resyncs.Load(),
		PostcardEmits: c.postcardEmits.Load(),
		AppendFlushes: c.appendFlushes.Load(),
		KIAggregated:  c.kiAggregated.Load(),
	}
}

// Translator converts DTA reports into RDMA operations against a
// collector's advertised memory regions.
type Translator struct {
	cfg Config

	req *rdma.Requester

	kwIdx   *keywrite.Indexer
	kwImage int // a Key-Write slot image's size: checksum and value
	kwReg   rdma.RegionInfo
	kiIdx   *keyincrement.Indexer
	kiReg   rdma.RegionInfo
	pcCoder *postcarding.Coder
	pcCache *postcarding.Cache
	pcReg   rdma.RegionInfo
	apBatch *appendlist.Batcher
	apReg   rdma.RegionInfo

	limiter *tokenBucket

	// thresholdQuery, when installed, pre-processes postcards (§7's
	// query-enhancing extension).
	thresholdQuery *ThresholdQuery

	// kiAgg is the optional Key-Increment pre-aggregation cache.
	kiAgg *kiAggCache

	// Emit posts one operation: the work-queue entry the translator has
	// just built at the tail of its send queue, carrying every replica
	// (the device's doorbell reads it in place; rdma.DecodeWQE decodes
	// it and rdma.Encode turns each replica into the RoCEv2 packet a
	// wire would carry). By default it is
	// SendQueue().Post, which commits the entry where it lies; nothing
	// executes until Doorbell. A wrapper may read wqe, and must call
	// through to the Emit it replaced before returning: the next
	// operation is built at the same tail, over an entry left
	// uncommitted.
	Emit func(wqe []byte)

	// Doorbell, if non-nil, hands the send queue to the collector device,
	// which executes the posted entries and writes their one completion
	// into the CQE it is handed (collector.Host.Doorbell); the PSN
	// tracker reads it there. The translator rings after every stage-C
	// window (so an entry point ends with a ring) and when doorbellOps
	// emit operations (one entry each, two for a split Append batch)
	// wait; a ring with nothing posted skips Doorbell. emitted holds the
	// traced operations' handles. An error panics.
	Doorbell func(*rdma.Completion) error
	// sq is the send queue the translator builds its entries in.
	sq      rdma.SendQueue
	ops     int
	emitted []trace.Handle
	// cqe is the completion-queue entry every doorbell writes. It is a
	// field, not a local: a local handed to the hook escapes to the heap.
	cqe rdma.Completion

	// PreTouch, if non-nil, is the collector device's pre-touch entry
	// (rdma.Device.PreTouch): before crafting a window the translator
	// hands it every slot address the window's Key-Write and
	// Key-Increment records will write, so those lines' cache misses
	// overlap the crafting instead of stalling the doorbell's stores one
	// by one. It must change nothing. Nil (stand-alone translators) skips
	// the stage.
	PreTouch func(rkey uint32, vas []uint64, length int)

	// Journal, when wired, receives rate-gated flight-recorder events
	// for shed episodes (rate-limit drops) and parse errors. The zero
	// value is a no-op. The translator is single-threaded by contract,
	// so the gate fields below need no atomics.
	Journal       journal.Emitter
	shedGate      journal.Gate
	parseGate     journal.Gate
	shedCause     uint64
	parseErrCause uint64

	// WAL, if non-nil, observes every admitted report in staged form
	// before primitive processing — the durability hook (internal/wal):
	// logging at admission rather than at RDMA emit keeps one compact
	// record per report and lets recovery rebuild translator-side
	// aggregation state (batcher stashes, postcard caches) by replaying
	// through this same pipeline. A WAL error fails the report.
	//
	// Admission-time logging runs BEFORE the token-bucket rate limiter
	// (whose shedding unit for Append is a whole batch flush, not a
	// report, so a post-limiter hook could not attribute drops to
	// records at all). A rate-dropped report therefore stays in the
	// log, and a replay — whose fresh bucket also paces differently —
	// can restore reports the live run shed. With rate limiting
	// enabled, recovery and log-shipping resync are exact over admitted
	// reports, not over emitted RDMA operations; restored state can
	// only gain best-effort-shed reports, never lose acknowledged ones.
	WAL func(rec *wire.StagedReport, nowNs uint64) error
	// WALPublish, if non-nil, runs at every ring: the log stages the
	// records WAL hands it and appends them here — one publication per
	// window, however many records (wal.Writer.Publish). A ring with
	// nothing staged costs the log a comparison.
	WALPublish func()

	// traceH is the data-plane trace handle for the report currently
	// being processed (taken from the chunk's handle slice), cleared when
	// the report's craft stage returns so the epoch-flush emit paths can
	// never stamp a recycled trace. The translator is single-threaded by
	// contract, so a plain field is race-free.
	traceH trace.Handle

	// plan, kwVAs and kiVAs are the window being processed, its planned
	// slot indexes turned into addresses (place): plan[i] says which run
	// of kwVAs (Key-Write) or kiVAs (Key-Increment) holds record i's.
	// inPlace holds the slot indexes of the record being planned in
	// place and the operands of the window's records planned in place.
	// Fixed capacity (batchWindow records × max redundancy, or × the
	// largest operand), so a window never allocates.
	plan    [batchWindow]slotPlan
	kwVAs   []uint64
	kiVAs   []uint64
	inPlace wire.ChunkPlan

	ctr  counters
	pend pending
}

// batchWindow is how many records pass through address generation,
// pre-touch and craft together (the engine's default ChunkFrames); a
// longer batch runs as consecutive windows. It bounds the pre-touched
// working set (≤ batchWindow × redundancy lines, far inside L1) so the
// hinted lines stay resident until the window's doorbell stores to them.
const batchWindow = 32

// doorbellOps is how many emit operations may wait for one doorbell.
const doorbellOps = 2 * batchWindow

// slotPlan is one record's wire.StagedPlan with its slot indexes turned
// into remote addresses: all that craft reads of a planned record.
type slotPlan struct {
	op    []byte         // the operand: a Key-Write's slot image, a Key-Increment's delta
	start uint16         // first of the record's addresses in kwVAs / kiVAs
	n     uint8          // replicas planned
	prim  wire.Primitive // which of the two; 0 = not planned, craft reads the record
	flags uint8          // the record's header flags
}

// TraceHandle returns the active report's trace handle (invalid
// outside a processing call). The WAL append hook uses it to hand
// trace ownership to the durability path.
func (t *Translator) TraceHandle() trace.Handle { return t.traceH }

// emitStart begins an emit operation: a traced report's start instant,
// or 0 without a clock read.
func (t *Translator) emitStart() int64 {
	if !t.traceH.Valid() {
		return 0
	}
	return obs.Nanotime()
}

// endEmit ends an emit operation begun at t0 (emitStart). An untraced
// one that leaves the doorbell room costs a count and a branch.
func (t *Translator) endEmit(t0 int64) {
	if t.ops++; t.ops == doorbellOps || t.traceH.Valid() {
		t.endEmitSlow(t0)
	}
}

// endEmitSlow is endEmit's rare half: it times a traced operation and
// queues its handle for the doorbell, and rings a full doorbell batch.
func (t *Translator) endEmitSlow(t0 int64) {
	if t.traceH.Valid() {
		t.ctr.emitNs.ObserveEx(uint64(obs.Nanotime()-t0), t.traceH.ID())
		t.emitted = append(t.emitted, t.traceH)
	}
	if t.ops == doorbellOps {
		t.ring()
	}
}

// ring is the doorbell and the translator's one publication point: the
// pending counts move to their cells, the collector executes the posted
// verbs (if any were posted) and writes the one completion into t.cqe,
// where the PSN tracker reads it (a NAK resynchronises it), the log
// publishes what was staged, and then the waiting traces are stamped
// emitted and translated (the ack was only handled now).
//
// The counts go first because they count posted verbs: a reader between
// calls sees the same values either way, and the locked adds, issued
// before the doorbell's stores rather than after them, do not wait for
// those stores' cache misses to drain.
func (t *Translator) ring() {
	c, p := &t.ctr, &t.pend
	publishCount(c.kwReports, &p.kwReports)
	publishCount(c.kiReports, &p.kiReports)
	publishCount(c.pcReports, &p.pcReports)
	publishCount(c.apReports, &p.apReports)
	publishCount(c.rdmaWrites, &p.rdmaWrites)
	publishCount(c.rdmaAtomics, &p.rdmaAtomics)
	publishCount(c.crafts, &p.crafts)
	publishCount(c.repatches, &p.repatches)
	publishCount(c.postcardEmits, &p.postcardEmits)
	publishCount(c.appendFlushes, &p.appendFlushes)
	publishCount(c.kiAggregated, &p.kiAggregated)
	if t.ops > 0 && t.Doorbell != nil {
		if err := t.Doorbell(&t.cqe); err != nil {
			panic(fmt.Sprintf("translator: collector rejected a posted verb: %v", err))
		}
		t.req.HandleAck(&t.cqe)
	}
	t.ops = 0
	if t.WALPublish != nil {
		t.WALPublish()
	}
	if len(t.emitted) == 0 {
		return
	}
	now := obs.Nanotime() // one clock read stamps every waiting trace
	for _, h := range t.emitted {
		h.StampAt(trace.StEmit, now)
		h.StampAt(trace.StTranslate, now)
	}
	clear(t.emitted) // drop the handles: their slots recycle
	t.emitted = t.emitted[:0]
}

// SendQueue is the queue the translator builds its work-queue entries
// in: the collector device executes it when Doorbell rings.
func (t *Translator) SendQueue() *rdma.SendQueue { return &t.sq }

// Stats snapshots the translator's counters. Safe to call concurrently
// with processing (the cells are atomics).
func (t *Translator) Stats() Stats { return t.ctr.snapshot() }

// New builds a translator connected through the given CM listener, which
// must advertise one region per enabled primitive, labelled "keywrite",
// "keyincrement", "postcarding" and "append".
func New(cfg Config, l *rdma.Listener) (*Translator, error) {
	return NewScoped(cfg, l, nil)
}

// NewScoped is New with the translator's metrics (dta_translator_*,
// dta_rdma_*, dta_rate_*) registered under the given obs
// scope, plus the per-stage latency histograms of traced reports. A nil
// scope keeps the counters behind Stats() live but unexposed, and the
// histograms record nothing. The scope is deliberately
// not part of Config: Config is the serialisable deployment geometry
// (it rides in the WAL's Meta record); a live registry handle is not.
func NewScoped(cfg Config, l *rdma.Listener, sc *obs.Scope) (_ *Translator, err error) {
	req, regions := rdma.Connect(l, 1000)
	t := &Translator{
		cfg:   cfg,
		req:   req,
		kwVAs: make([]uint64, 0, batchWindow*keywrite.MaxRedundancy),
		kiVAs: make([]uint64, 0, batchWindow*keyincrement.MaxRedundancy),
		inPlace: wire.ChunkPlan{
			Slots:    make([]uint32, 0, max(keywrite.MaxRedundancy, keyincrement.MaxRedundancy)),
			Operands: make([]byte, 0, batchWindow*wire.MaxOperand),
		},
		emitted: make([]trace.Handle, 0, doorbellOps),
		ctr:     newCounters(sc),
	}
	t.Emit = t.sq.Post
	// A NAK resync fires at the doorbell: count it, and flag the traces
	// whose verbs it executed so tail-based sampling retains them.
	t.req.OnResync = func() {
		t.ctr.resyncs.Inc()
		for _, h := range t.emitted {
			h.Flag(trace.FResync)
		}
	}
	// Burst of rate/1000 ≈ one millisecond of credit, as before; the
	// integer bucket floors it at one whole token so low rates still
	// admit (see ratelimit.go).
	t.limiter = newTokenBucket(cfg.RateLimit, cfg.RateLimit/1000)
	if cfg.KeyWrite != nil {
		t.kwIdx, err = keywrite.NewIndexer(*cfg.KeyWrite)
		if err != nil {
			return nil, err
		}
		t.kwImage = cfg.KeyWrite.SlotSize()
		t.kwReg, err = needRegion(regions, "keywrite", uint64(cfg.KeyWrite.BufferSize()))
		if err != nil {
			return nil, err
		}
	}
	if cfg.KeyIncrement != nil {
		t.kiIdx, err = keyincrement.NewIndexer(*cfg.KeyIncrement)
		if err != nil {
			return nil, err
		}
		t.kiReg, err = needRegion(regions, "keyincrement", uint64(cfg.KeyIncrement.BufferSize()))
		if err != nil {
			return nil, err
		}
		if rows := cfg.KIAggregationRows; rows > 0 {
			if rows&(rows-1) != 0 {
				return nil, fmt.Errorf("translator: KI aggregation rows %d not a power of two", rows)
			}
			t.kiAgg = newKIAggCache(rows)
		}
	}
	if cfg.Postcarding != nil {
		t.pcCoder, err = postcarding.NewCoder(*cfg.Postcarding)
		if err != nil {
			return nil, err
		}
		rows := cfg.PostcardCacheRows
		if rows == 0 {
			rows = 32768
		}
		t.pcCache, err = postcarding.NewCache(rows, cfg.Postcarding.Hops)
		if err != nil {
			return nil, err
		}
		t.pcReg, err = needRegion(regions, "postcarding", uint64(cfg.Postcarding.BufferSize()))
		if err != nil {
			return nil, err
		}
	}
	if cfg.Append != nil {
		batch := cfg.AppendBatch
		if batch == 0 {
			batch = 1
		}
		t.apBatch, err = appendlist.NewBatcher(*cfg.Append, batch)
		if err != nil {
			return nil, err
		}
		t.apReg, err = needRegion(regions, "append", uint64(cfg.Append.BufferSize()))
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func needRegion(regions []rdma.RegionInfo, label string, minLen uint64) (rdma.RegionInfo, error) {
	g, ok := rdma.FindRegion(regions, label)
	if !ok {
		return rdma.RegionInfo{}, fmt.Errorf("translator: collector does not advertise %q", label)
	}
	if g.Length < minLen {
		return rdma.RegionInfo{}, fmt.Errorf("translator: region %q is %dB, need %dB", label, g.Length, minLen)
	}
	return g, nil
}

// ErrNotDTA reports a packet that was not addressed to the DTA port; the
// caller should forward it as user traffic.
var ErrNotDTA = errors.New("translator: user traffic")

func (t *Translator) unknownPrimitive(p wire.Primitive) error {
	t.ctr.unkReports.Inc()
	t.ctr.parseErrors.Inc()
	t.noteParseError()
	return fmt.Errorf("translator: unknown primitive %v", p)
}

// ProcessStagedBatch is ProcessStagedView of every record of recs: a
// whole chunk, as log replay and a traced synchronous record hand it in.
func (t *Translator) ProcessStagedBatch(recs []wire.StagedReport, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error) {
	return t.ProcessStagedView(recs, nil, plan, trcs, nowNs)
}

// ProcessStagedView translates the records of recs that idx names, in
// order (wire.ViewLen) — the hottest ingest entry: the engine's shard
// workers hand it their view of every dequeued chunk — in three stages:
//
//	A. address generation (planRecord): every Key-Write and
//	   (non-aggregated) Key-Increment record's n slot indexes, hashed
//	   once, side-effect free, beside its flags and its operand (a
//	   Key-Write's slot image — key checksum and padded value — or a
//	   Key-Increment's delta). It reads nothing but the record and
//	   immutable configuration, so the engine runs it where the record is
//	   staged — on the submitting goroutine, through PlanStaged — and the
//	   result arrives here as plan, parallel to recs. A chunk that arrives
//	   without one (a traced synchronous record) is planned in place,
//	   window by window, by the same function;
//	B. pre-touch, per window of batchWindow records: the collector device
//	   issues a cache-line hint for each planned address, which loads
//	   and writes nothing and retires at once, so the window's
//	   destination lines arrive while stage C crafts it and the
//	   doorbell's stores find them resident;
//	C. craft/post: per record, in order, exactly the single-record
//	   sequence (WAL hook → limiter → build one entry of every replica
//	   at the send queue's tail → Emit), from the plan alone: a planned
//	   record is read only by the WAL hook, so its lines need not cross
//	   over from the producer's core at all. A record the plan left out
//	   is read, and planned in place there; then one doorbell.
//
// Stages A and B skip what C will not deterministically write:
// aggregated Key-Increments (the emitted slot belongs to the evicted
// row), postcards (the cache decides) and appends (sequential). A record
// the WAL hook fails or the limiter sheds wasted a hint, nothing else.
//
// trcs is a prefix of the named records' trace handles: trcs[j] is the
// j-th's (invalid when sampled out), and so is a record's past its end.
// A failing record does not stop the view: failed counts them and first
// is the earliest error. Processing is semantically identical to
// ProcessStaged on each record.
func (t *Translator) ProcessStagedView(recs []wire.StagedReport, idx []uint32, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error) {
	planned, n := len(plan.Recs) == len(recs), wire.ViewLen(recs, idx)
	for base := 0; base < n; base += batchWindow {
		w := min(n-base, batchWindow)
		t.kwVAs, t.kiVAs, t.inPlace.Operands = t.kwVAs[:0], t.kiVAs[:0], t.inPlace.Operands[:0]
		for i := range w {
			if k := wire.ViewAt(idx, base+i); planned {
				// No look at the record: craft will not look either.
				h := plan.Recs[k]
				t.place(i, h.Prim(), h.Flags(), plan.SlotsOf(k), plan.OperandOf(k))
			} else {
				t.planInPlace(i, &recs[k])
			}
		}
		t.preTouch()
		for i := range w {
			s := &recs[wire.ViewAt(idx, base+i)]
			var err error
			if base+i < len(trcs) && trcs[base+i].Valid() {
				t.traceH = trcs[base+i]
				err = t.craftTraced(i, s, nowNs)
			} else {
				err = t.craft(i, s, nowNs)
			}
			if err != nil {
				if failed == 0 {
					first = err
				}
				failed++
			}
		}
		t.ring()
	}
	return failed, first
}

// ProcessStaged is ProcessStagedBatch for an untraced chunk of one
// (synchronous reporters, tools, benchmarks), planned in place: the same
// stages, in a straight line. It stays out of the window loop because
// that loop, run for one record, cost the synchronous path ≈ 4 % more
// CPU per report (sync_readwrite, 2-vCPU VM).
func (t *Translator) ProcessStaged(s *wire.StagedReport, nowNs uint64) error {
	t.kwVAs, t.kiVAs, t.inPlace.Operands = t.kwVAs[:0], t.kiVAs[:0], t.inPlace.Operands[:0]
	t.planInPlace(0, s)
	t.preTouch()
	err := t.craft(0, s, nowNs)
	t.ring()
	return err
}

// planRecord is stage A, the one place a staged record's slots are
// hashed and its operand built: it appends the indexes of the slots s
// will write to p.Slots and its operand to p.Operands — for a
// Key-Write the slot image, the key checksum (from the same pass over
// the key as the slots: PlanWrite) then the value zero-padded to DataSize; for a
// Key-Increment the little-endian delta — and says whose store the
// slots index. Nothing appended (prim 0) means not planned:
// Key-Increment under aggregation, postcards, appends, a disabled
// primitive, redundancy 0. It reads the record and configuration fixed
// at New, nothing else.
func (t *Translator) planRecord(s *wire.StagedReport, p *wire.ChunkPlan) wire.Primitive {
	switch s.Primitive() {
	case wire.PrimKeyWrite:
		if t.kwIdx == nil {
			break
		}
		key, red := s.KeyWriteArgs()
		if n := kwRedundancy(int(red)); n > 0 {
			var csum uint32
			p.Slots, csum = t.kwIdx.PlanWrite(key, n, p.Slots)
			if d := s.Payload(); t.kwImage == 8 && len(d) >= 4 {
				// A 4-byte value: the image is one word, built in a
				// register and stored whole.
				img := uint64(bits.ReverseBytes32(csum)) | uint64(binary.LittleEndian.Uint32(d))<<32
				p.Operands = binary.LittleEndian.AppendUint64(p.Operands, img)
			} else {
				p.Operands = appendImage(p.Operands, csum, d, t.kwImage)
			}
			return wire.PrimKeyWrite
		}
	case wire.PrimKeyIncrement:
		if t.kiIdx == nil || t.kiAgg != nil {
			break
		}
		key, red, delta := s.KeyIncrementArgs()
		if n := kiRedundancy(int(red)); n > 0 {
			p.Slots = t.kiIdx.PlanWrite(key, n, p.Slots)
			p.Operands = binary.LittleEndian.AppendUint64(p.Operands, delta)
			return wire.PrimKeyIncrement
		}
	}
	return 0
}

// appendImage appends a Key-Write slot image of size bytes: the
// big-endian checksum csum, then data cut or zero-padded to the value
// width.
func appendImage(op []byte, csum uint32, data []byte, size int) []byte {
	m := len(op)
	op = slices.Grow(op, size)[:m+size]
	binary.BigEndian.PutUint32(op[m:], csum)
	clear(op[m+keywrite.ChecksumSize+copy(op[m+keywrite.ChecksumSize:], data):])
	return op
}

// PlanStaged is planRecord as the engine's staging side calls it
// (engine.StagedPlanner): it appends s's plan to p. Any number of
// goroutines may plan against one translator while its owner translates,
// and translators of equal geometry (PlansLike) plan identically.
func (t *Translator) PlanStaged(s *wire.StagedReport, p *wire.ChunkPlan) {
	start, op := len(p.Slots), len(p.Operands)
	if prim := t.planRecord(s, p); prim != 0 {
		p.Planned(prim, s.Flags(), start, op)
	} else {
		p.Recs = append(p.Recs, 0) // nothing was appended: the zero entry
	}
}

// planInPlace is planRecord for window slot i of a chunk that arrived
// without a plan, into the window's own slots and operands.
func (t *Translator) planInPlace(i int, s *wire.StagedReport) {
	p := &t.inPlace
	p.Slots = p.Slots[:0]
	m := len(p.Operands)
	prim := t.planRecord(s, p)
	t.place(i, prim, s.Flags(), p.Slots, p.Operands[m:])
}

// place turns window slot i's planned slot indexes into the remote
// addresses stages B and C read: one multiply-add per replica. The entry
// is written field by field: one built whole and copied in is reloaded
// as wide words over its narrow stores, a store-forwarding stall.
func (t *Translator) place(i int, prim wire.Primitive, flags uint8, slots []uint32, op []byte) {
	e := &t.plan[i]
	e.op, e.n, e.prim, e.flags = op, uint8(len(slots)), prim, flags
	switch prim {
	case wire.PrimKeyWrite:
		e.start = uint16(len(t.kwVAs))
		t.kwVAs = t.kwAddrs(t.kwVAs, slots)
	case wire.PrimKeyIncrement:
		e.start = uint16(len(t.kiVAs))
		t.kiVAs = t.kiAddrs(t.kiVAs, slots)
	}
}

// PlansLike reports whether o plans every record exactly as t does, so
// that one PlanStaged result serves both (an HA fan-out plans once for
// all owners).
func (t *Translator) PlansLike(o *Translator) bool {
	if (t.kwIdx == nil) != (o.kwIdx == nil) || (t.kiIdx == nil) != (o.kiIdx == nil) || (t.kiAgg == nil) != (o.kiAgg == nil) {
		return false
	}
	if t.kwIdx != nil && *t.cfg.KeyWrite != *o.cfg.KeyWrite {
		return false
	}
	return t.kiIdx == nil || *t.cfg.KeyIncrement == *o.cfg.KeyIncrement
}

// preTouch is stage B.
func (t *Translator) preTouch() {
	if t.PreTouch == nil {
		return
	}
	if len(t.kwVAs) > 0 {
		t.PreTouch(t.kwReg.RKey, t.kwVAs, t.kwIdx.Config().SlotSize())
	}
	if len(t.kiVAs) > 0 {
		t.PreTouch(t.kiReg.RKey, t.kiVAs, keyincrement.CounterSize)
	}
}

// craftTraced is craft for a traced report, the only kind timed; out of
// line, like the reporter's deliverTraced. The span end shares its clock
// read with the StTranslate stamp, and the handle is cleared so the
// epoch-flush emit paths can never stamp a recycled trace.
//
//go:noinline
func (t *Translator) craftTraced(i int, s *wire.StagedReport, nowNs uint64) error {
	t0 := obs.Nanotime()
	err := t.craft(i, s, nowNs)
	now := obs.Nanotime()
	t.traceH.StampAt(trace.StTranslate, now)
	t.ctr.reportNs.ObserveEx(uint64(now-t0), t.traceH.ID())
	t.traceH = trace.Handle{}
	return err
}

// craft is stage C for window slot i. It dispatches on the plan: a
// planned record is crafted from its plan alone, and s is read only by
// the WAL hook and for a record the plan left out.
func (t *Translator) craft(i int, s *wire.StagedReport, nowNs uint64) error {
	if t.WAL != nil {
		if err := t.WAL(s, nowNs); err != nil {
			return err
		}
	}
	p := &t.plan[i]
	if p.prim == 0 {
		// A chunk plan gives up on a record whose slot indexes or operand
		// it cannot address (ChunkPlan.Planned, in a chunk of thousands of
		// records), and that record must still be written: plan it here.
		if prim := s.Primitive(); prim == wire.PrimKeyWrite || prim == wire.PrimKeyIncrement {
			t.planInPlace(i, s)
		}
		if p.prim == 0 {
			return t.craftRecord(s, nowNs)
		}
	}
	if p.prim == wire.PrimKeyWrite {
		t.pend.kwReports++
		return t.emitKeyWrite(t.kwVAs[p.start:p.start+uint16(p.n)], p.op, p.flags, nowNs)
	}
	t.pend.kiReports++
	return t.emitFetchAdds(t.kiVAs[p.start:p.start+uint16(p.n)], binary.LittleEndian.Uint64(p.op), nowNs)
}

// craftRecord is craft for a record no plan covers, read in full.
func (t *Translator) craftRecord(s *wire.StagedReport, nowNs uint64) error {
	switch s.Primitive() {
	case wire.PrimKeyWrite:
		// Not planned: Key-Write disabled or redundancy 0.
		t.pend.kwReports++
		if t.kwIdx == nil {
			return errors.New("translator: Key-Write not enabled")
		}
		return nil
	case wire.PrimKeyIncrement:
		// Not planned: disabled, nothing to write, or aggregated.
		t.pend.kiReports++
		key, red, delta := s.KeyIncrementArgs()
		ki := wire.KeyIncrement{Redundancy: red, Key: *key, Delta: delta}
		return t.keyIncrementArgs(&ki, nowNs)
	case wire.PrimPostcarding:
		t.pend.pcReports++
		key, hop, pathLen, value := s.PostcardArgs()
		pc := wire.Postcard{Key: *key, Hop: hop, PathLen: pathLen, Value: value}
		return t.postcardArgs(&pc, s.Flags(), nowNs)
	case wire.PrimAppend:
		t.pend.apReports++
		return t.appendArgs(s.AppendArgs(), s.Payload(), s.Flags(), nowNs)
	default:
		return t.unknownPrimitive(s.Primitive())
	}
}

// drop handles an operation the rate limiter shed: it is counted and
// journalled, and the report it came from still succeeds.
func (t *Translator) drop() error {
	t.ctr.rateDropped.Inc()
	t.noteShed()
	return nil
}

// noteShed publishes a rate-gated EvRateShed carrying the cumulative
// drop count. Shedding happens per report under overload, so without
// the gate a sustained episode would lap the journal ring and evict
// the rare control-plane chains the recorder exists to keep.
func (t *Translator) noteShed() {
	if t.Journal.J == nil || !t.shedGate.Allow(shedEventGap) {
		return
	}
	if t.shedCause == 0 {
		t.shedCause = t.Journal.NewCause()
	}
	t.Journal.Emit(journal.EvRateShed, journal.SevWarn, t.shedCause, t.ctr.rateDropped.Load(), 0, 0)
}

// noteParseError is noteShed's twin for malformed ingest.
func (t *Translator) noteParseError() {
	if t.Journal.J == nil || !t.parseGate.Allow(shedEventGap) {
		return
	}
	if t.parseErrCause == 0 {
		t.parseErrCause = t.Journal.NewCause()
	}
	t.Journal.Emit(journal.EvParseError, journal.SevWarn, t.parseErrCause, t.ctr.parseErrors.Load(), 0, 0)
}

// shedEventGap spaces journal events for high-frequency degradation
// (shed reports, parse errors): at most one event per stream per gap.
const shedEventGap = 100 * time.Millisecond

func immediateOf(prim wire.Primitive, flags uint8) *uint32 {
	if flags&wire.FlagImmediate == 0 {
		return nil
	}
	imm := uint32(prim)
	return &imm
}

// kwRedundancy clamps a requested Key-Write redundancy; 0 means the
// report writes nothing.
func kwRedundancy(n int) int { return min(n, keywrite.MaxRedundancy) }

// kwAddrs appends the remote addresses of Key-Write slots.
func (t *Translator) kwAddrs(dst []uint64, slots []uint32) []uint64 {
	for _, slot := range slots {
		dst = append(dst, t.kwReg.VA+uint64(t.kwIdx.Offset(uint64(slot))))
	}
	return dst
}

// emitKeyWrite writes the slot image img (planRecord's Key-Write
// operand) to every address in vas.
func (t *Translator) emitKeyWrite(vas []uint64, img []byte, flags uint8, nowNs uint64) error {
	if !t.limiter.allow(nowNs, len(vas)) {
		return t.drop()
	}
	// Multicast: one WRITE entry carries every replica's address — the N
	// copies differ in nothing but address and PSN, as the hardware
	// multicast engine replicates them. The slot image is copied straight
	// into it: one of a word (a 4-byte value) as a word.
	t0 := t.emitStart()
	w, payload := t.sq.Write(t.req.DestQP, t.req.NextPSNs(len(vas)), vas, t.kwReg.RKey,
		len(img), false, immediateOf(wire.PrimKeyWrite, flags))
	if len(img) == 8 {
		binary.LittleEndian.PutUint64(payload, binary.LittleEndian.Uint64(img))
	} else {
		copy(payload, img)
	}
	t.post(w, len(vas))
	t.pend.rdmaWrites += uint64(len(vas))
	t.endEmit(t0)
	return nil
}

// post emits w, an entry of n replicas built at the send queue's tail:
// one build per operation, whose replicas 2..N are counted as repatches.
func (t *Translator) post(w []byte, n int) {
	t.Emit(w)
	t.pend.crafts++
	t.pend.repatches += uint64(n - 1)
}

// kiRedundancy clamps a requested Key-Increment redundancy; 0 means the
// report adds nothing.
func kiRedundancy(n int) int { return min(n, keyincrement.MaxRedundancy) }

// kiAddrs appends the remote addresses of counters.
func (t *Translator) kiAddrs(dst []uint64, slots []uint32) []uint64 {
	for _, slot := range slots {
		dst = append(dst, t.kiReg.VA+uint64(t.kiIdx.Offset(uint64(slot))))
	}
	return dst
}

// keyIncrementArgs is the unplanned Key-Increment path: records address
// generation left alone (aggregation on, or redundancy 0).
func (t *Translator) keyIncrementArgs(ki *wire.KeyIncrement, nowNs uint64) error {
	if t.kiIdx == nil {
		return errors.New("translator: Key-Increment not enabled")
	}
	if t.kiAgg == nil {
		return nil // redundancy 0: nothing to add
	}
	key, delta, red, flushed := t.kiAgg.add(ki)
	if !flushed {
		t.pend.kiAggregated++
		return nil
	}
	// An incumbent was evicted: emit its accumulated delta instead.
	agg := wire.KeyIncrement{Redundancy: red, Key: key, Delta: delta}
	return t.fetchAddKey(&agg, nowNs)
}

// fetchAddKey hashes an aggregate's counters and emits the FETCH&ADDs.
func (t *Translator) fetchAddKey(ki *wire.KeyIncrement, nowNs uint64) error {
	n := kiRedundancy(int(ki.Redundancy))
	if n < 1 {
		return nil
	}
	var slots [keyincrement.MaxRedundancy]uint32
	var vas [keyincrement.MaxRedundancy]uint64
	return t.emitFetchAdds(t.kiAddrs(vas[:0], t.kiIdx.PlanWrite(&ki.Key, n, slots[:0])), ki.Delta, nowNs)
}

// emitFetchAdds adds delta to the counter at every address in vas.
func (t *Translator) emitFetchAdds(vas []uint64, delta uint64, nowNs uint64) error {
	if !t.limiter.allow(nowNs, len(vas)) {
		return t.drop()
	}
	// One entry, every replica (see emitKeyWrite).
	t0 := t.emitStart()
	t.post(t.sq.FetchAddWQE(t.req.DestQP, t.req.NextPSNs(len(vas)), vas, t.kiReg.RKey, delta), len(vas))
	t.pend.rdmaAtomics += uint64(len(vas))
	t.endEmit(t0)
	return nil
}

// flushKeyIncrements drains the pre-aggregation cache.
func (t *Translator) flushKeyIncrements(nowNs uint64) error {
	if t.kiAgg == nil {
		return nil
	}
	out := t.kiAgg.drain()
	for i := range out {
		if err := t.fetchAddKey(&out[i], nowNs); err != nil {
			return err
		}
	}
	return nil
}

func (t *Translator) postcardArgs(pc *wire.Postcard, flags uint8, nowNs uint64) error {
	if q := t.thresholdQuery; q != nil {
		if ev, consumed := q.Offer(pc); consumed {
			if ev == nil {
				return nil
			}
			rep := q.EventReport(ev)
			return t.appendArgs(rep.Append.ListID, rep.Data, rep.Header.Flags, nowNs)
		}
	}
	if t.pcCoder == nil {
		return errors.New("translator: Postcarding not enabled")
	}
	emits := t.pcCache.Insert(pc)
	for i := range emits {
		if err := t.emitChunk(&emits[i], flags, nowNs); err != nil {
			return err
		}
	}
	return nil
}

// emitChunk writes one aggregated flow chunk with redundancy N
// (configured at the store; the paper uses the same N for all flows).
func (t *Translator) emitChunk(e *postcarding.Emit, flags uint8, nowNs uint64) error {
	t.pend.postcardEmits++
	cfg := t.pcCoder.Config()
	n := min(max(t.cfg.PostcardRedundancy, 1), postcarding.MaxRedundancy)
	if !t.limiter.allow(nowNs, n) {
		return t.drop()
	}
	t0 := t.emitStart()
	// One entry, every redundant chunk (see emitKeyWrite).
	var vas [postcarding.MaxRedundancy]uint64
	// The chunk indexes land in vas, and each becomes its address in place.
	chunks, _ := t.pcCoder.Plan(e.Key, n, vas[:0])
	for j, c := range chunks {
		vas[j] = t.pcReg.VA + c*uint64(cfg.ChunkBytes())
	}
	w, img := t.sq.Write(t.req.DestQP, t.req.NextPSNs(n), vas[:n], t.pcReg.RKey,
		cfg.ChunkBytes(), false, immediateOf(wire.PrimPostcarding, flags))
	// Encoded in place, hop-positionally: missing middle hops stay blank
	// so a query rejects the chunk instead of returning a shifted path.
	t.pcCoder.EncodeChunkSparse(e.Key, &e.Values, img)
	t.post(w, n)
	t.pend.rdmaWrites += uint64(n)
	t.endEmit(t0)
	return nil
}

func (t *Translator) appendArgs(listID uint32, data []byte, flags uint8, nowNs uint64) error {
	if t.apBatch == nil {
		return errors.New("translator: Append not enabled")
	}
	f, err := t.apBatch.Append(int(listID), data)
	if err != nil {
		return err
	}
	if f == nil {
		return nil
	}
	return t.emitAppendFlush(f, immediateOf(wire.PrimAppend, flags), nowNs)
}

// emitAppendFlush writes one batch to its list's ring. A batch is one
// RDMA WRITE unless it crosses the ring end — possible only after a
// partial flush left the head off a batch boundary — where it splits in
// two at the wrap, as appendlist.Store.Apply does: a single WRITE would
// run on into the next list (or past the region, on the last one).
func (t *Translator) emitAppendFlush(f *appendlist.Flush, imm *uint32, nowNs uint64) error {
	apCfg := t.cfg.Append
	head, tail := f.Data, []byte(nil)
	if over := f.Index + f.Entries - apCfg.EntriesPerList; over > 0 {
		cut := (f.Entries - over) * apCfg.EntrySize
		head, tail = f.Data[:cut], f.Data[cut:]
	}
	msgs := 1
	if tail != nil {
		msgs = 2
	}
	if !t.limiter.allow(nowNs, msgs) {
		return t.drop()
	}
	t.pend.appendFlushes++
	t0 := t.emitStart()
	listVA := t.apReg.VA + uint64(f.List*apCfg.ListBytes())
	// The immediate (push notification) rides the batch's last WRITE.
	headImm := imm
	if tail != nil {
		headImm = nil
	}
	headVA := listVA + uint64(f.Index*apCfg.EntrySize)
	t.post(t.sq.WriteWQE(t.req.DestQP, t.req.NextPSN(), []uint64{headVA}, t.apReg.RKey, head, false, headImm), 1)
	if tail != nil {
		t.post(t.sq.WriteWQE(t.req.DestQP, t.req.NextPSN(), []uint64{listVA}, t.apReg.RKey, tail, false, imm), 1)
	}
	t.pend.rdmaWrites += uint64(msgs)
	t.endEmit(t0)
	return nil
}

// Flush is the epoch end: it forces out partial Append batches, then the
// pending Key-Increment aggregates, then the cached postcards, and rings
// once (more only if doorbellOps operations wait). The two caches drain
// through their occupancy bitmaps, so an epoch with little pending costs
// little.
func (t *Translator) Flush(nowNs uint64) error {
	defer t.ring()
	if err := t.flushAppend(nowNs); err != nil {
		return err
	}
	if err := t.flushKeyIncrements(nowNs); err != nil {
		return err
	}
	return t.drainPostcards(nowNs)
}

// flushAppend forces out partial Append batches for every list.
func (t *Translator) flushAppend(nowNs uint64) error {
	if t.apBatch == nil {
		return nil
	}
	for l := 0; l < t.cfg.Append.Lists; l++ {
		if f := t.apBatch.FlushPartial(l); f != nil {
			if err := t.emitAppendFlush(f, nil, nowNs); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainPostcards flushes every cached postcard row.
func (t *Translator) drainPostcards(nowNs uint64) error {
	if t.pcCache == nil {
		return nil
	}
	out := t.pcCache.Drain()
	for i := range out {
		if err := t.emitChunk(&out[i], 0, nowNs); err != nil {
			return err
		}
	}
	return nil
}

// Config returns the translator's configuration (WAL metadata capture,
// diagnostics).
func (t *Translator) Config() Config { return t.cfg }

// PostcardCache exposes the cache for statistics (Fig. 14).
func (t *Translator) PostcardCache() *postcarding.Cache { return t.pcCache }

// AppendBatcher exposes the batcher for statistics.
func (t *Translator) AppendBatcher() *appendlist.Batcher { return t.apBatch }
