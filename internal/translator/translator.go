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
// process, so the verbs are posted as work-queue entries (rdma.WriteWQE,
// rdma.FetchAddWQE), not as RoCEv2 packets: none would cross a wire. The
// doorbell (ring) is the one publication point: it executes what was
// posted, publishes the log and the counters, and stamps the traces.
package translator

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	RDMACrafts    uint64 // work-queue entries built (first replica)
	RDMARepatches uint64 // PSN/VA patches of a built entry (multicast replicas 2..N)
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
// publishes the totals with one Add per touched counter. Every entry
// point ends with a ring, so readers see exact values whenever the
// translator is between calls; a scrape racing a call lags by at most
// one window's reports.
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
		crafts:        sc.Counter("dta_rdma_crafts_total", "Work-queue entries built (first multicast replica)."),
		repatches:     sc.Counter("dta_rdma_repatches_total", "PSN/VA patches reusing a built work-queue entry (replicas 2..N)."),
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

	// Emit posts one verb, a work-queue entry (rdma.DecodeWQE reads it;
	// rdma.Encode turns it into the RoCEv2 packet a wire would carry), to
	// the collector's send queue (collector.Host.Post); nothing executes
	// until Doorbell. Emit must consume wqe before returning: the
	// translator reuses (and patches) the buffer for the next emission.
	Emit func(wqe []byte)

	// Doorbell, if non-nil, executes the posted verbs and returns their
	// one completion as a value (collector.Host.Doorbell), which goes
	// straight to the PSN tracker. The translator rings after every
	// stage-C window (so an entry point ends with a ring) and when
	// doorbellOps emit operations (≤ MaxRedundancy verbs each) wait; a
	// ring with nothing posted skips Doorbell. emitted holds the traced
	// operations' handles. An error panics.
	Doorbell func() (rdma.Completion, error)
	ops      int
	emitted  []trace.Handle

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
	// staged is where ProcessReport stages the report it was handed.
	staged wire.StagedReport

	// wqeBuf and chunkBuf are the crafting scratch buffers: every
	// outgoing work-queue entry (and postcard chunk image) is built in
	// place here, so the steady-state emit path performs no allocation.
	wqeBuf   []byte
	chunkBuf []byte

	// traceH is the data-plane trace handle for the report currently
	// being processed (taken from the chunk's handle slice), cleared when
	// the report's craft stage returns so the epoch-flush emit paths can
	// never stamp a recycled trace. The translator is single-threaded by
	// contract, so a plain field is race-free.
	traceH trace.Handle

	// plan, kwVAs and kiVAs are the window being processed, its planned
	// slot indexes turned into addresses (place): plan[i] says which run
	// of kwVAs (Key-Write) or kiVAs (Key-Increment) holds record i's.
	// Fixed capacity (batchWindow records × max redundancy), so a window
	// never allocates.
	plan  [batchWindow]slotPlan
	kwVAs []uint64
	kiVAs []uint64

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
// into remote addresses.
type slotPlan struct {
	start uint16         // first of the record's addresses in kwVAs / kiVAs
	n     uint8          // replicas planned; 0 = not planned, craft decides alone
	prim  wire.Primitive // which of the two: craft honours a plan only for the primitive it was made for
	csum  uint32         // Key-Write key checksum
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
// collector executes the posted verbs (if any were posted), the one
// completion goes to the PSN tracker (a NAK resynchronises it), the log
// publishes what was staged, the pending counts move to their cells, and
// then the waiting traces are stamped emitted and translated (the ack was
// only handled now).
func (t *Translator) ring() {
	if t.ops > 0 && t.Doorbell != nil {
		c, err := t.Doorbell()
		if err != nil {
			panic(fmt.Sprintf("translator: collector rejected a posted verb: %v", err))
		}
		t.req.HandleAck(c)
	}
	t.ops = 0
	if t.WALPublish != nil {
		t.WALPublish()
	}
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
func NewScoped(cfg Config, l *rdma.Listener, sc *obs.Scope) (*Translator, error) {
	req, regions, err := rdma.Connect(l, 1000)
	if err != nil {
		return nil, err
	}
	t := &Translator{
		cfg:      cfg,
		req:      req,
		wqeBuf:   make([]byte, 0, 512),
		chunkBuf: make([]byte, 0, postcarding.MaxHops*postcarding.SlotSize),
		kwVAs:    make([]uint64, 0, batchWindow*keywrite.MaxRedundancy),
		kiVAs:    make([]uint64, 0, batchWindow*keyincrement.MaxRedundancy),
		emitted:  make([]trace.Handle, 0, doorbellOps),
		ctr:      newCounters(sc),
	}
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

// ProcessReport translates one decoded DTA report: it stages r and runs
// ProcessStaged. r (including r.Data) is only read for the duration of
// the call.
func (t *Translator) ProcessReport(r *wire.Report, nowNs uint64) error {
	t.staged.Stage(r)
	return t.ProcessStaged(&t.staged, nowNs)
}

func (t *Translator) unknownPrimitive(p wire.Primitive) error {
	t.ctr.unkReports.Inc()
	t.ctr.parseErrors.Inc()
	t.noteParseError()
	return fmt.Errorf("translator: unknown primitive %v", p)
}

// ProcessStagedBatch translates a chunk of staged records — the hottest
// ingest entry: the engine's shard workers hand every dequeued chunk
// here — in three stages:
//
//	A. address generation (planRecord): every Key-Write and
//	   (non-aggregated) Key-Increment record's n slot indexes and key
//	   checksum, hashed once, side-effect free. It reads nothing but the
//	   record and immutable configuration, so the engine runs it where the
//	   record is staged — on the submitting goroutine, through PlanStaged
//	   — and the result arrives here as plan. A chunk that arrives without
//	   one (plan.Recs not parallel to recs: chunks of one, socket bursts,
//	   WAL replay) is planned in place, window by window, by the same
//	   function;
//	B. pre-touch, per window of batchWindow records: the collector device
//	   issues a cache-line hint for each planned address, which loads
//	   and writes nothing and retires at once, so the window's
//	   destination lines arrive while stage C crafts it and the
//	   doorbell's stores find them resident;
//	C. craft/post: per record, in order, exactly the single-record
//	   sequence (WAL hook → limiter → build/patch → Emit), reading the
//	   planned addresses instead of re-hashing; then one doorbell.
//
// Stages A and B skip what C will not deterministically write:
// aggregated Key-Increments (the emitted slot belongs to the evicted
// row), postcards (the cache decides) and appends (sequential). A record
// the WAL hook fails or the limiter sheds wasted a hint, nothing else.
//
// trcs is a prefix of recs' data-plane trace handles: trcs[i] is
// recs[i]'s (possibly invalid — sampled out), and a record at index
// len(trcs) or beyond was sampled out. A failing record does not stop
// the chunk: failed counts them and first is the earliest error.
// Processing is semantically identical to ProcessStaged on each record.
// A synchronous caller hands a traced record here as a chunk of one.
func (t *Translator) ProcessStagedBatch(recs []wire.StagedReport, plan wire.ChunkPlan, trcs []trace.Handle, nowNs uint64) (failed int, first error) {
	planned := len(plan.Recs) == len(recs)
	for base := 0; base < len(recs); base += batchWindow {
		w := recs[base:min(base+batchWindow, len(recs))]
		t.kwVAs, t.kiVAs = t.kwVAs[:0], t.kiVAs[:0]
		for i := range w {
			if planned {
				// No look at the record: its lines are still on their way
				// over from the producer's core.
				h := &plan.Recs[base+i]
				t.place(i, h.Prim, h.Csum, plan.SlotsOf(base+i))
			} else {
				t.planInPlace(i, &w[i])
			}
		}
		t.preTouch()
		for i := range w {
			var err error
			if base+i < len(trcs) && trcs[base+i].Valid() {
				t.traceH = trcs[base+i]
				err = t.craftTraced(i, &w[i], nowNs)
			} else {
				err = t.craft(i, &w[i], nowNs)
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
	t.kwVAs, t.kiVAs = t.kwVAs[:0], t.kiVAs[:0]
	t.planInPlace(0, s)
	t.preTouch()
	err := t.craft(0, s, nowNs)
	t.ring()
	return err
}

// planRecord is stage A, the one place a staged record's slots are
// hashed: it appends the indexes of the slots s will write to dst and
// says whose store they index and, for a Key-Write, the key checksum
// (the slots and the checksum from one pass over the key: PlanWrite).
// Nothing appended (prim 0) means not planned: Key-Increment under
// aggregation, postcards, appends, a disabled primitive, redundancy 0.
// It reads the record and configuration fixed at New, nothing else.
func (t *Translator) planRecord(s *wire.StagedReport, dst []uint32) (slots []uint32, prim wire.Primitive, csum uint32) {
	switch s.Primitive() {
	case wire.PrimKeyWrite:
		if t.kwIdx == nil {
			break
		}
		key, red := s.KeyWriteArgs()
		if n := kwRedundancy(int(red)); n > 0 {
			slots, csum := t.kwIdx.PlanWrite(key, n, dst)
			return slots, wire.PrimKeyWrite, csum
		}
	case wire.PrimKeyIncrement:
		if t.kiIdx == nil || t.kiAgg != nil {
			break
		}
		key, red, _ := s.KeyIncrementArgs()
		if n := kiRedundancy(int(red)); n > 0 {
			return t.kiIdx.PlanWrite(key, n, dst), wire.PrimKeyIncrement, 0
		}
	}
	return dst, 0, 0
}

// PlanStaged is planRecord as the engine's staging side calls it
// (engine.StagedPlanner): it appends s's plan to p. Any number of
// goroutines may plan against one translator while its owner translates,
// and translators of equal geometry (PlansLike) plan identically.
func (t *Translator) PlanStaged(s *wire.StagedReport, p *wire.ChunkPlan) {
	start := len(p.Slots)
	slots, prim, csum := t.planRecord(s, p.Slots)
	p.Slots = slots
	p.Planned(prim, csum, start)
}

// planInPlace is planRecord for window slot i of a chunk that arrived
// without a plan.
func (t *Translator) planInPlace(i int, s *wire.StagedReport) {
	var buf [max(keywrite.MaxRedundancy, keyincrement.MaxRedundancy)]uint32
	slots, prim, csum := t.planRecord(s, buf[:0])
	t.place(i, prim, csum, slots)
}

// place turns window slot i's planned slot indexes into the remote
// addresses stages B and C read: one multiply-add per replica.
func (t *Translator) place(i int, prim wire.Primitive, csum uint32, slots []uint32) {
	e := slotPlan{prim: prim, n: uint8(len(slots)), csum: csum}
	switch prim {
	case wire.PrimKeyWrite:
		e.start = uint16(len(t.kwVAs))
		t.kwVAs = t.kwAddrs(t.kwVAs, slots)
	case wire.PrimKeyIncrement:
		e.start = uint16(len(t.kiVAs))
		t.kiVAs = t.kiAddrs(t.kiVAs, slots)
	}
	t.plan[i] = e
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

// craft is stage C for window slot i.
func (t *Translator) craft(i int, s *wire.StagedReport, nowNs uint64) error {
	if t.WAL != nil {
		if err := t.WAL(s, nowNs); err != nil {
			return err
		}
	}
	switch s.Primitive() {
	case wire.PrimKeyWrite:
		t.pend.kwReports++
		if p := t.plan[i]; p.prim == wire.PrimKeyWrite {
			vas := t.kwVAs[p.start : p.start+uint16(p.n)]
			return t.emitKeyWrite(vas, p.csum, s.Flags(), s.Payload(), nowNs)
		}
		// Not planned: Key-Write disabled or redundancy 0.
		if t.kwIdx == nil {
			return errors.New("translator: Key-Write not enabled")
		}
		return nil
	case wire.PrimKeyIncrement:
		t.pend.kiReports++
		key, red, delta := s.KeyIncrementArgs()
		if p := t.plan[i]; p.prim == wire.PrimKeyIncrement {
			return t.emitFetchAdds(t.kiVAs[p.start:p.start+uint16(p.n)], delta, nowNs)
		}
		// Not planned: disabled, nothing to write, or aggregated.
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

// emitKeyWrite writes the slot image (checksum csum, value data) to
// every address in vas.
func (t *Translator) emitKeyWrite(vas []uint64, csum uint32, flags uint8, data []byte, nowNs uint64) error {
	if !t.limiter.allow(nowNs, len(vas)) {
		return t.drop()
	}
	cfg := t.kwIdx.Config()
	// Slot image: 4B checksum followed by the (padded) value.
	var payload [keywrite.ChecksumSize + wire.MaxData]byte
	binary.BigEndian.PutUint32(payload[:], csum)
	copy(payload[keywrite.ChecksumSize:keywrite.ChecksumSize+cfg.DataSize], data)
	img := payload[:keywrite.ChecksumSize+cfg.DataSize]
	// Multicast: build the WRITE once, then patch the address and PSN
	// per replica — the N copies differ in nothing else, so rebuilding
	// the entry and re-copying the payload N times is pure waste (the
	// hardware multicast engine replicates identically).
	t0 := t.emitStart()
	t.post(rdma.WriteWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(),
		vas[0], t.kwReg.RKey, img, false, immediateOf(wire.PrimKeyWrite, flags)), vas)
	t.pend.rdmaWrites += uint64(len(vas))
	t.endEmit(t0)
	return nil
}

// post emits w, built for vas[0], then w patched with the next PSN and
// each further address: one build and len(vas)-1 patches per operation.
func (t *Translator) post(w []byte, vas []uint64) {
	t.wqeBuf = w[:0]
	t.Emit(w)
	for _, va := range vas[1:] {
		rdma.PatchWQE(w, t.req.NextPSN(), va)
		t.Emit(w)
	}
	t.pend.crafts++
	t.pend.repatches += uint64(len(vas) - 1)
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
	// Build once, patch address+PSN per replica (see emitKeyWrite).
	t0 := t.emitStart()
	t.post(rdma.FetchAddWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(), vas[0], t.kiReg.RKey, delta), vas)
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
	// Encode hop-positionally: missing middle hops stay blank so a
	// query rejects the chunk instead of returning a shifted path.
	t0 := t.emitStart()
	payload := t.pcCoder.EncodeChunkSparse(e.Key, &e.Values, t.chunkBuf)
	t.chunkBuf = payload[:0]
	// Build once, patch address+PSN per redundant chunk (see emitKeyWrite).
	var vas [postcarding.MaxRedundancy]uint64
	// The chunk indexes land in vas, and each becomes its address in place.
	chunks, _ := t.pcCoder.Plan(e.Key, n, vas[:0])
	for j, c := range chunks {
		vas[j] = t.pcReg.VA + c*uint64(cfg.ChunkBytes())
	}
	t.post(rdma.WriteWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(),
		vas[0], t.pcReg.RKey, payload, false, immediateOf(wire.PrimPostcarding, flags)), vas[:n])
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
	t.post(rdma.WriteWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(), headVA, t.apReg.RKey, head, false, headImm), []uint64{headVA})
	if tail != nil {
		t.post(rdma.WriteWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(), listVA, t.apReg.RKey, tail, false, imm), []uint64{listVA})
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

// Requester exposes the PSN tracker (tests and diagnostics).
func (t *Translator) Requester() *rdma.Requester { return t.req }
