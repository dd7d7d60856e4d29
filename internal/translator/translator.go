// Package translator implements the DTA translator: the last-hop switch
// in front of the collector that converts lightweight DTA reports into
// standard RDMA verbs (Fig. 6 of the paper).
//
// The pipeline mirrors the Tofino implementation's stages:
//
//	parse → (user traffic: forward) → primitive processing → multicast
//	redundancy → verb crafting → rate limiting → emit
//
// Key-Write and Key-Increment hash the key into N slot addresses and
// replicate the operation N ways (the multicast engine in hardware).
// Postcarding aggregates postcards in an SRAM cache and emits chunk-sized
// WRITEs. Append stashes entries and emits batch WRITEs. All primitives
// share the RDMA crafting logic: per-connection PSN tracking, queue-pair
// resynchronisation on NAK, and a token-bucket rate limiter that protects
// the collector NIC during congestion (§5.2); drops can bounce a NACK
// back to the reporter. The collector device shares the process, so the
// verbs are posted as work-queue entries (rdma.WriteWQE,
// rdma.FetchAddWQE), not as RoCEv2 packets: none would cross a wire.
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
	// MaxKWRedundancy caps the redundancy reporters may request.
	MaxKWRedundancy int
}

// Stats counts translator activity. It is a snapshot view over the
// translator's obs counters: the same atomic cells back this struct and
// the Prometheus exposition, so the two can never disagree.
type Stats struct {
	Reports       uint64 // DTA reports processed
	UserPackets   uint64 // non-DTA packets forwarded
	ParseErrors   uint64
	RDMAWrites    uint64
	RDMAAtomics   uint64
	RDMACrafts    uint64 // work-queue entries built (first replica)
	RDMARepatches uint64 // PSN/VA patches of a built entry (multicast replicas 2..N)
	RateDropped   uint64 // reports dropped by the rate limiter
	NACKs         uint64 // NACKs bounced to reporters
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

	userPackets   *obs.Counter
	parseErrors   *obs.Counter
	rdmaWrites    *obs.Counter
	rdmaAtomics   *obs.Counter
	crafts        *obs.Counter
	repatches     *obs.Counter
	rateDropped   *obs.Counter
	nacks         *obs.Counter
	resyncs       *obs.Counter
	postcardEmits *obs.Counter
	appendFlushes *obs.Counter
	kiAggregated  *obs.Counter

	// Sampled per-stage latency (nil histograms when unobserved — the
	// samplers then skip the clock reads entirely).
	reportNs   *obs.Histogram
	emitNs     *obs.Histogram
	reportSamp obs.Sampler
	emitSamp   obs.Sampler
}

// spanSampleShift thins per-stage spans to 1 in 64: two clock reads
// (~50ns) amortise to under a nanosecond per report.
const spanSampleShift = 6

// pending holds the per-report counters of the call in progress as plain
// integers: a locked add per report per counter is measurable on the hot
// path, so the craft stage counts here and every public entry point
// publishes the totals with one Add per touched counter before it
// returns. Readers see exact values whenever the translator is between
// calls; a scrape racing a call lags by at most that call's reports.
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

// publish rings the doorbell, moves the pending counts into the obs
// cells and, with a log attached, appends the records the call staged.
func (t *Translator) publish() {
	t.ring()
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
}

func newCounters(sc *obs.Scope) counters {
	prim := func(p string) *obs.Scope { return sc.With(obs.L("primitive", p)) }
	return counters{
		kwReports:  prim("key_write").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		kiReports:  prim("key_increment").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		pcReports:  prim("postcarding").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		apReports:  prim("append").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),
		unkReports: prim("unknown").Counter("dta_translator_reports_total", "DTA reports processed, by primitive."),

		userPackets:   sc.Counter("dta_translator_user_packets_total", "Non-DTA packets forwarded as user traffic."),
		parseErrors:   sc.Counter("dta_translator_parse_errors_total", "Frames or reports the translator could not parse."),
		rdmaWrites:    sc.Counter("dta_rdma_writes_total", "RDMA WRITEs posted."),
		rdmaAtomics:   sc.Counter("dta_rdma_atomics_total", "RDMA FETCH&ADDs posted."),
		crafts:        sc.Counter("dta_rdma_crafts_total", "Work-queue entries built (first multicast replica)."),
		repatches:     sc.Counter("dta_rdma_repatches_total", "PSN/VA patches reusing a built work-queue entry (replicas 2..N)."),
		rateDropped:   sc.Counter("dta_rate_dropped_total", "Reports shed by the token-bucket rate limiter."),
		nacks:         sc.Counter("dta_nacks_total", "NACKs bounced to reporters on rate drops."),
		resyncs:       sc.Counter("dta_resyncs_total", "Queue-pair resynchronisations after NAK-sequence."),
		postcardEmits: sc.Counter("dta_postcard_emits_total", "Aggregated postcard chunks emitted."),
		appendFlushes: sc.Counter("dta_append_flushes_total", "Append batch flushes emitted."),
		kiAggregated:  sc.Counter("dta_ki_aggregated_total", "Key-Increment reports absorbed by translator-side pre-aggregation."),

		reportNs:   sc.Histogram("dta_translator_report_ns", "End-to-end report processing nanoseconds (sampled 1/64)."),
		emitNs:     sc.Histogram("dta_rdma_emit_ns", "Work-queue entry build+post nanoseconds per primitive operation, doorbell excluded (sampled 1/64)."),
		reportSamp: obs.NewSampler(spanSampleShift),
		emitSamp:   obs.NewSampler(spanSampleShift),
	}
}

// snapshot materialises the public Stats view.
func (c *counters) snapshot() Stats {
	return Stats{
		Reports: c.kwReports.Load() + c.kiReports.Load() + c.pcReports.Load() +
			c.apReports.Load() + c.unkReports.Load(),
		UserPackets:   c.userPackets.Load(),
		ParseErrors:   c.parseErrors.Load(),
		RDMAWrites:    c.rdmaWrites.Load(),
		RDMAAtomics:   c.rdmaAtomics.Load(),
		RDMACrafts:    c.crafts.Load(),
		RDMARepatches: c.repatches.Load(),
		RateDropped:   c.rateDropped.Load(),
		NACKs:         c.nacks.Load(),
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
	// straight to the PSN tracker. It rings after every stage-C window,
	// before every entry point returns, and when cap(emitted) emit
	// operations (≤ MaxRedundancy verbs each) wait for it; emitted holds
	// the sampled or traced ones. An error panics.
	Doorbell func() (rdma.Completion, error)
	ops      int
	emitted  []emitMark

	// PreTouch, if non-nil, is the collector device's pre-touch entry
	// (rdma.Device.PreTouch): before crafting a chunk the translator
	// hands it every slot address the chunk's Key-Write and Key-Increment
	// records will write, so those lines' cache misses overlap instead of
	// stalling the emits one by one. It must only read. Nil (stand-alone
	// translators) skips the stage.
	PreTouch func(rkey uint32, vas []uint64, length int)

	// NACK, if non-nil, is invoked with the reporter-visible reason when
	// a report is dropped by the rate limiter.
	NACK func(r *wire.Report)

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
	// WALPublish, if non-nil, runs once as every ingest call returns:
	// the log stages the records WAL hands it and appends them here — one
	// publication per chunk, however many records (wal.Writer.Publish).
	WALPublish func()
	// staged is where ProcessReport stages the report it was handed.
	staged wire.StagedReport

	// wqeBuf and chunkBuf are the crafting scratch buffers: every
	// outgoing work-queue entry (and postcard chunk image) is built in
	// place here, so the steady-state emit path performs no allocation.
	wqeBuf   []byte
	chunkBuf []byte
	// frame is the ingress parsing scratch for ProcessFrame. Keeping it
	// on the Translator (single-threaded by contract) rather than the
	// stack stops the decoded report from escaping to the heap on every
	// frame.
	frame wire.ParsedFrame
	// nackScratch is the lazily materialised report handed to the NACK
	// callback when a staged report is rate-limit dropped.
	nackScratch wire.Report

	// traceH is the data-plane trace handle for the report currently
	// being processed (taken from the chunk's handle slice, or set by a
	// sync caller via SetTraceHandle), cleared when the report's craft
	// stage returns so the epoch-flush emit paths can never stamp a
	// recycled trace. The translator is single-threaded by contract, so a
	// plain field is race-free.
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
// working set (≤ batchWindow × redundancy lines, far inside L1) so a
// line is still resident when its record is crafted.
const batchWindow = 32

// emitMark is an emit operation's span and trace handle.
type emitMark struct {
	span obs.Span
	h    trace.Handle
}

// slotPlan is one record's wire.StagedPlan with its slot indexes turned
// into remote addresses.
type slotPlan struct {
	start uint16         // first of the record's addresses in kwVAs / kiVAs
	n     uint8          // replicas planned; 0 = not planned, craft decides alone
	prim  wire.Primitive // which of the two: craft honours a plan only for the primitive it was made for
	csum  uint32         // Key-Write key checksum
}

// SetTraceHandle installs the trace handle for the NEXT report processed
// through a single-report entry (ProcessStaged/ProcessReport), which
// consumes it; chunks carry their handles as an argument instead. The
// handle may be invalid (report sampled out).
func (t *Translator) SetTraceHandle(h trace.Handle) { t.traceH = h }

// TraceHandle returns the active report's trace handle (invalid
// outside a processing call). The WAL append hook uses it to hand
// trace ownership to the durability path.
func (t *Translator) TraceHandle() trace.Handle { return t.traceH }

// endEmit ends an emit operation: a sampled span or a traced report
// waits for the doorbell that executes its verbs.
func (t *Translator) endEmit(span obs.Span) {
	if span != (obs.Span{}) || t.traceH.Valid() {
		t.emitted = append(t.emitted, emitMark{span, t.traceH})
	}
	if t.ops++; t.ops == cap(t.emitted) {
		t.ring()
	}
}

// ring is the doorbell: the collector executes the posted verbs, the one
// completion goes to the PSN tracker (a NAK resynchronises it), and then
// the waiting emit spans and stamps end (translate too: the ack was only
// handled now).
func (t *Translator) ring() {
	if t.Doorbell != nil {
		c, err := t.Doorbell()
		if err != nil {
			panic(fmt.Sprintf("translator: collector rejected a posted verb: %v", err))
		}
		t.req.HandleAck(c)
	}
	t.ops = 0
	for _, e := range t.emitted {
		e.h.Stamp(trace.StEmit)
		e.h.Stamp(trace.StTranslate)
		e.span.EndExemplar(e.h.ID())
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
// dta_rdma_*, dta_rate_*, dta_nacks_*) registered under the given obs
// scope, plus sampled per-stage latency histograms. A nil scope keeps
// the counters behind Stats() live but unexposed and disables the
// latency spans entirely (no clock reads). The scope is deliberately
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
		emitted:  make([]emitMark, 0, 2*batchWindow),
		ctr:      newCounters(sc),
	}
	// A NAK resync fires at the doorbell: count it, and flag the traces
	// whose verbs it executed so tail-based sampling retains them.
	t.req.OnResync = func() {
		t.ctr.resyncs.Inc()
		for _, e := range t.emitted {
			e.h.Flag(trace.FResync)
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

// ProcessFrame is the translator's wire edge: it parses a full Ethernet
// frame and processes the DTA report it carries; other traffic only
// counts as forwarded.
func (t *Translator) ProcessFrame(frame []byte, nowNs uint64) error {
	p := &t.frame
	if err := wire.DecodeFrame(frame, p); err != nil {
		t.ctr.parseErrors.Inc()
		t.noteParseError()
		return err
	}
	if !p.IsDTA {
		t.ctr.userPackets.Inc()
		return ErrNotDTA
	}
	return t.ProcessReport(&p.Report, nowNs)
}

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
//	   loads one byte from each planned address in a loop that does
//	   nothing else, so the window's destination-line misses overlap
//	   instead of each stalling the instruction after its own store;
//	C. craft/post: per record, in order, exactly the single-record
//	   sequence (WAL hook → limiter → build/patch → Emit), reading the
//	   planned addresses instead of re-hashing; then one doorbell.
//
// Stages A and B skip what C will not deterministically write:
// aggregated Key-Increments (the emitted slot belongs to the evicted
// row), postcards (the cache decides) and appends (sequential). A record
// the WAL hook fails or the limiter sheds wasted a touch, nothing else.
//
// trcs, when non-empty, runs parallel to recs: trcs[i] is recs[i]'s
// data-plane trace handle (possibly invalid — sampled out). A failing
// record does not stop the chunk: failed counts them and first is the
// earliest error. Processing is semantically identical to ProcessStaged
// on each record (a full report is materialised lazily only if a
// rate-limit drop must raise a NACK).
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
			if base+i < len(trcs) {
				t.traceH = trcs[base+i]
			}
			if err := t.craft(i, &w[i], nowNs); err != nil {
				if failed == 0 {
					first = err
				}
				failed++
			}
		}
		t.ring()
	}
	t.publish()
	return failed, first
}

// ProcessStaged is ProcessStagedBatch for a chunk of one (synchronous
// reporters, tools, benchmarks), planned in place. The record's trace
// handle, if any, was installed by SetTraceHandle.
func (t *Translator) ProcessStaged(s *wire.StagedReport, nowNs uint64) error {
	t.kwVAs, t.kiVAs = t.kwVAs[:0], t.kiVAs[:0]
	t.planInPlace(0, s)
	t.preTouch()
	err := t.craft(0, s, nowNs)
	t.publish()
	return err
}

// planRecord is stage A, the one place a staged record's slots are
// hashed: it appends the indexes of the slots s will write to dst and
// says whose store they index and, for a Key-Write, the key checksum.
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
		if n := t.kwRedundancy(int(red)); n > 0 {
			return t.kwSlots(dst, key, n), wire.PrimKeyWrite, t.kwIdx.Checksum(*key)
		}
	case wire.PrimKeyIncrement:
		if t.kiIdx == nil || t.kiAgg != nil {
			break
		}
		key, red, _ := s.KeyIncrementArgs()
		if n := kiRedundancy(int(red)); n > 0 {
			return t.kiSlots(dst, key, n), wire.PrimKeyIncrement, 0
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
	if t.kwIdx != nil && (*t.cfg.KeyWrite != *o.cfg.KeyWrite || t.cfg.MaxKWRedundancy != o.cfg.MaxKWRedundancy) {
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

// craft is stage C for window slot i.
func (t *Translator) craft(i int, s *wire.StagedReport, nowNs uint64) error {
	span := t.ctr.reportSamp.Start(t.ctr.reportNs)
	err := t.craftStaged(i, s, nowNs)
	t.traceH.Stamp(trace.StTranslate)
	span.EndExemplar(t.traceH.ID())
	t.traceH = trace.Handle{}
	return err
}

func (t *Translator) craftStaged(i int, s *wire.StagedReport, nowNs uint64) error {
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
			return t.emitKeyWrite(vas, p.csum, s.Flags(), s.Payload(), nackRef{s: s}, nowNs)
		}
		// Not planned: Key-Write disabled or nothing to write.
		key, red := s.KeyWriteArgs()
		return t.keyWriteArgs(key, int(red), s.Flags(), s.Payload(), nackRef{s: s}, nowNs)
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
		return t.postcardArgs(&pc, s.Flags(), nackRef{s: s}, nowNs)
	case wire.PrimAppend:
		t.pend.apReports++
		return t.appendArgs(s.AppendArgs(), s.Payload(), s.Flags(), nackRef{s: s}, nowNs)
	default:
		return t.unknownPrimitive(s.Primitive())
	}
}

// drop handles a rate-limited report.
// nackRef is a lazily materialised handle to the report being
// processed, used only on the (rare) rate-limit drop path: the staged
// fast path decompresses a full wire.Report for the NACK callback only
// if a NACK is actually sent.
type nackRef struct {
	r *wire.Report
	s *wire.StagedReport
}

func (n nackRef) report(scratch *wire.Report) *wire.Report {
	if n.r != nil {
		return n.r
	}
	if n.s != nil {
		return n.s.View(scratch)
	}
	// Epoch flushes (Flush) carry no originating report; hand the
	// callback a zeroed one, never a stale scratch.
	*scratch = wire.Report{}
	return scratch
}

func (t *Translator) drop(src nackRef) error {
	t.ctr.rateDropped.Inc()
	t.noteShed()
	if t.NACK != nil {
		t.ctr.nacks.Inc()
		t.NACK(src.report(&t.nackScratch))
	}
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
func (t *Translator) kwRedundancy(n int) int {
	if max := t.cfg.MaxKWRedundancy; max > 0 && n > max {
		n = max
	}
	return min(n, keywrite.MaxRedundancy)
}

// kwSlots appends the indexes of key's first n Key-Write slots.
func (t *Translator) kwSlots(dst []uint32, key *wire.Key, n int) []uint32 {
	for i := 0; i < n; i++ {
		dst = append(dst, uint32(t.kwIdx.Slot(i, *key)))
	}
	return dst
}

// kwAddrs appends the remote addresses of Key-Write slots.
func (t *Translator) kwAddrs(dst []uint64, slots []uint32) []uint64 {
	for _, slot := range slots {
		dst = append(dst, t.kwReg.VA+uint64(t.kwIdx.Offset(uint64(slot))))
	}
	return dst
}

// keyWriteArgs is the unplanned Key-Write path (records address
// generation left alone): hash, then emit.
func (t *Translator) keyWriteArgs(key *wire.Key, n int, flags uint8, data []byte, src nackRef, nowNs uint64) error {
	if t.kwIdx == nil {
		return errors.New("translator: Key-Write not enabled")
	}
	n = t.kwRedundancy(n)
	if n < 1 {
		return nil
	}
	var slots [keywrite.MaxRedundancy]uint32
	var vas [keywrite.MaxRedundancy]uint64
	return t.emitKeyWrite(t.kwAddrs(vas[:0], t.kwSlots(slots[:0], key, n)), t.kwIdx.Checksum(*key), flags, data, src, nowNs)
}

// emitKeyWrite writes the slot image (checksum csum, value data) to
// every address in vas.
func (t *Translator) emitKeyWrite(vas []uint64, csum uint32, flags uint8, data []byte, src nackRef, nowNs uint64) error {
	if !t.limiter.allow(nowNs, len(vas)) {
		return t.drop(src)
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
	span := t.ctr.emitSamp.Start(t.ctr.emitNs)
	t.post(rdma.WriteWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(),
		vas[0], t.kwReg.RKey, img, false, immediateOf(wire.PrimKeyWrite, flags)), vas)
	t.pend.rdmaWrites += uint64(len(vas))
	t.endEmit(span)
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

// kiSlots appends the indexes of key's first n counters.
func (t *Translator) kiSlots(dst []uint32, key *wire.Key, n int) []uint32 {
	for i := 0; i < n; i++ {
		dst = append(dst, uint32(t.kiIdx.Slot(i, *key)))
	}
	return dst
}

// kiAddrs appends the remote addresses of counters.
func (t *Translator) kiAddrs(dst []uint64, slots []uint32) []uint64 {
	for _, slot := range slots {
		dst = append(dst, t.kiReg.VA+uint64(t.kiIdx.Offset(uint64(slot))))
	}
	return dst
}

// keyIncrementArgs is the unplanned Key-Increment path: records address
// generation left alone (aggregation on).
func (t *Translator) keyIncrementArgs(ki *wire.KeyIncrement, nowNs uint64) error {
	if t.kiIdx == nil {
		return errors.New("translator: Key-Increment not enabled")
	}
	if t.kiAgg != nil {
		key, delta, red, flushed := t.kiAgg.add(ki)
		if !flushed {
			t.pend.kiAggregated++
			return nil
		}
		// An incumbent was evicted: emit its accumulated delta instead.
		agg := wire.KeyIncrement{Redundancy: red, Key: key, Delta: delta}
		return t.fetchAddKey(&agg, nowNs)
	}
	return t.fetchAddKey(ki, nowNs)
}

// fetchAddKey hashes ki's counters and emits the FETCH&ADDs.
func (t *Translator) fetchAddKey(ki *wire.KeyIncrement, nowNs uint64) error {
	n := kiRedundancy(int(ki.Redundancy))
	if n < 1 {
		return nil
	}
	var slots [keyincrement.MaxRedundancy]uint32
	var vas [keyincrement.MaxRedundancy]uint64
	return t.emitFetchAdds(t.kiAddrs(vas[:0], t.kiSlots(slots[:0], &ki.Key, n)), ki.Delta, nowNs)
}

// emitFetchAdds adds delta to the counter at every address in vas.
func (t *Translator) emitFetchAdds(vas []uint64, delta uint64, nowNs uint64) error {
	if !t.limiter.allow(nowNs, len(vas)) {
		t.ctr.rateDropped.Inc()
		t.noteShed()
		return nil
	}
	// Build once, patch address+PSN per replica (see emitKeyWrite).
	span := t.ctr.emitSamp.Start(t.ctr.emitNs)
	t.post(rdma.FetchAddWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(), vas[0], t.kiReg.RKey, delta), vas)
	t.pend.rdmaAtomics += uint64(len(vas))
	t.endEmit(span)
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

func (t *Translator) postcardArgs(pc *wire.Postcard, flags uint8, src nackRef, nowNs uint64) error {
	if q := t.thresholdQuery; q != nil {
		if ev, consumed := q.Offer(pc); consumed {
			if ev == nil {
				return nil
			}
			rep := q.EventReport(ev)
			return t.appendArgs(rep.Append.ListID, rep.Data, rep.Header.Flags, nackRef{r: &rep}, nowNs)
		}
	}
	if t.pcCoder == nil {
		return errors.New("translator: Postcarding not enabled")
	}
	emits := t.pcCache.Insert(pc)
	for i := range emits {
		if err := t.emitChunk(&emits[i], flags, src, nowNs); err != nil {
			return err
		}
	}
	return nil
}

// emitChunk writes one aggregated flow chunk with redundancy N
// (configured at the store; the paper uses the same N for all flows).
func (t *Translator) emitChunk(e *postcarding.Emit, flags uint8, src nackRef, nowNs uint64) error {
	t.pend.postcardEmits++
	cfg := t.pcCoder.Config()
	n := min(max(t.cfg.PostcardRedundancy, 1), postcarding.MaxRedundancy)
	if !t.limiter.allow(nowNs, n) {
		return t.drop(src)
	}
	// Encode hop-positionally: missing middle hops stay blank so a
	// query rejects the chunk instead of returning a shifted path.
	span := t.ctr.emitSamp.Start(t.ctr.emitNs)
	payload := t.pcCoder.EncodeChunkSparse(e.Key, &e.Values, t.chunkBuf)
	t.chunkBuf = payload[:0]
	// Build once, patch address+PSN per redundant chunk (see emitKeyWrite).
	var vas [postcarding.MaxRedundancy]uint64
	for j := range n {
		vas[j] = t.pcReg.VA + uint64(int(t.pcCoder.Chunk(j, e.Key))*cfg.ChunkBytes())
	}
	t.post(rdma.WriteWQE(t.wqeBuf, t.req.DestQP, t.req.NextPSN(),
		vas[0], t.pcReg.RKey, payload, false, immediateOf(wire.PrimPostcarding, flags)), vas[:n])
	t.pend.rdmaWrites += uint64(n)
	t.endEmit(span)
	return nil
}

func (t *Translator) appendArgs(listID uint32, data []byte, flags uint8, src nackRef, nowNs uint64) error {
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
	return t.emitAppendFlush(f, immediateOf(wire.PrimAppend, flags), src, nowNs)
}

// emitAppendFlush writes one batch to its list's ring. A batch is one
// RDMA WRITE unless it crosses the ring end — possible only after a
// partial flush left the head off a batch boundary — where it splits in
// two at the wrap, as appendlist.Store.Apply does: a single WRITE would
// run on into the next list (or past the region, on the last one).
func (t *Translator) emitAppendFlush(f *appendlist.Flush, imm *uint32, src nackRef, nowNs uint64) error {
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
		return t.drop(src)
	}
	t.pend.appendFlushes++
	span := t.ctr.emitSamp.Start(t.ctr.emitNs)
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
	t.endEmit(span)
	return nil
}

// Flush is the epoch end: it forces out partial Append batches, then the
// pending Key-Increment aggregates, then the cached postcards, and
// publishes once — one doorbell per epoch. The two caches drain through
// their occupancy bitmaps, so an epoch with little pending costs little.
func (t *Translator) Flush(nowNs uint64) error {
	defer t.publish()
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
			if err := t.emitAppendFlush(f, nil, nackRef{}, nowNs); err != nil {
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
		if err := t.emitChunk(&out[i], 0, nackRef{}, nowNs); err != nil {
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
