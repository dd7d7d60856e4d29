// Package dta is a Go implementation of Direct Telemetry Access
// (Langlet et al., SIGCOMM 2023): a telemetry collection system that
// moves reports from switches into queryable data structures in a
// collector's memory using RDMA, with no collector CPU involvement.
//
// The package wires the three roles of the paper into one in-process
// system for simulation, testing and benchmarking:
//
//   - Reporters (switches) encapsulate telemetry into the lightweight
//     UDP-based DTA protocol (§5.1).
//   - The Translator (the collector's top-of-rack switch) converts DTA
//     reports into RDMA WRITE / FETCH&ADD operations, aggregating
//     postcards and batching appends on the way (§5.2, Fig. 6).
//   - The Collector hosts RDMA-registered, write-only data structures —
//     Key-Write, Postcarding, Append, Key-Increment — and answers
//     queries over them (§5.3).
//
// A minimal session:
//
//	sys, _ := dta.New(dta.Options{
//		KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 20, DataSize: 4},
//	})
//	rep := sys.Reporter(1)
//	rep.KeyWrite(dta.KeyFromUint64(42), []byte{1, 2, 3, 4}, 2)
//	val, ok, _ := sys.LookupValue(dta.KeyFromUint64(42), 2)
//
// Reports travel as one representation: validated with the wire
// decoder's rules and staged by value (wire.StagedReport). Wire frames
// are decoded at the edge that receives them (Reporter.SubmitFrame, or
// Reporter.SubmitDatagram for a socket's bare DTA payloads). The
// translator crafts the verbs with PSN tracking as work-queue entries —
// the collector's device model shares the process, so no RoCEv2 packet
// would cross a wire — and the device validates and applies them,
// answering each doorbell with one completion. An optional lossy link
// model, charged each report's exact frame size, exercises the recovery
// paths.
package dta

import (
	"sync"
	"sync/atomic"

	"dta/internal/collector"
	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/netsim"
	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
	"dta/internal/translator"
	"dta/internal/wal"
	"dta/internal/wire"
)

// Key is a fixed-width telemetry key (a packed flow 5-tuple, host
// address, query ID, ...).
type Key = wire.Key

// KeyFromUint64 packs a 64-bit scalar key.
func KeyFromUint64(v uint64) Key { return wire.KeyFromUint64(v) }

// FiveTupleKey packs an IPv4 flow 5-tuple.
func FiveTupleKey(srcIP, dstIP [4]byte, srcPort, dstPort uint16, proto uint8) Key {
	return wire.FiveTuple(srcIP, dstIP, srcPort, dstPort, proto)
}

// KeyWriteOptions sizes the Key-Write store.
type KeyWriteOptions struct {
	// Slots is the number of key-value slots (a power of two).
	Slots uint64
	// DataSize is the value width in bytes.
	DataSize int
	// ChecksumBits is the checksum width b (0 = 32).
	ChecksumBits int
}

// KeyIncrementOptions sizes the Key-Increment store.
type KeyIncrementOptions struct {
	// Slots is the number of 64-bit counters (a power of two).
	Slots uint64
	// AggregationRows enables translator-side pre-aggregation of deltas
	// (0 disables; otherwise a power of two). See §4 "Extensibility".
	AggregationRows int
}

// PostcardingOptions sizes the Postcarding store.
type PostcardingOptions struct {
	// Chunks is the number of flow chunks (a power of two).
	Chunks uint64
	// Hops is the path bound B.
	Hops int
	// Values enumerates the value space (e.g. all switch IDs).
	Values []uint32
	// SlotBits is the slot width b (0 = 32).
	SlotBits int
	// CacheRows sizes the translator's aggregation cache (0 = 32768).
	CacheRows int
	// Redundancy is the chunk redundancy N (0 or 1 = single chunk).
	Redundancy int
}

// AppendOptions sizes the Append store.
type AppendOptions struct {
	// Lists is the number of event lists.
	Lists int
	// EntriesPerList is each ring's capacity (a multiple of Batch).
	EntriesPerList int
	// EntrySize is the fixed entry width in bytes.
	EntrySize int
	// Batch is the translator batching factor (0 or 1 = none).
	Batch int
}

// Options assembles a DTA deployment. At least one primitive must be
// enabled.
type Options struct {
	KeyWrite     *KeyWriteOptions
	KeyIncrement *KeyIncrementOptions
	Postcarding  *PostcardingOptions
	Append       *AppendOptions

	// RateLimit caps the translator's RDMA rate (messages/s; 0 = off).
	RateLimit float64
	// ReporterLoss drops this fraction of reporter→translator frames,
	// exercising DTA's best-effort behaviour (0 = lossless).
	ReporterLoss float64
	// Seed fixes the loss pattern.
	Seed int64

	// DisableTelemetry turns the self-telemetry registry off: no metric
	// series are registered (Metrics returns nil) and the per-stage
	// latency histograms never read the clock. The counters behind Stats
	// keep working — they are the same cells, just unexposed. The
	// uninstrumented baseline benchmarks set it. It also disables the
	// flight-recorder event journal (Journal returns nil; every emit
	// site degrades to one nil-check branch).
	DisableTelemetry bool
}

// System is an in-process DTA deployment: one collector, one translator,
// any number of reporters.
type System struct {
	host *collector.Host
	tr   *translator.Translator
	link *netsim.Link
	// now is the simulation clock; atomic so Advance can run while an
	// attached Engine worker reads it.
	now atomic.Uint64
	// skew is an injected per-collector clock offset (signed ns, chaos
	// plane): Now reports now + skew, so a skewed collector timestamps
	// reports, token-bucket refills and WAL records off a shifted — and,
	// across a step, non-monotonic — wall clock, exactly the hostile
	// clock the rate limiter and varint time deltas must survive.
	skew atomic.Int64

	// eventsOnce guards the single Events pump; see Events.
	eventsOnce sync.Once
	events     chan ImmediateEvent

	// wal, when attached (WithWAL), logs every admitted report for crash
	// recovery and exact log-based replication resync. See durability.go.
	wal *wal.Writer

	// telemetry is the deployment's registry, journal and tracer:
	// standalone systems own theirs, cluster members share their
	// cluster's (see obs.go). obsScope is where this system's layers
	// register: the registry root, or collector="i" for a member, whose
	// journal events carry collectorID (-1 = standalone).
	telemetry
	obsScope    *obs.Scope
	collectorID int16

	// ckptCause, when non-zero, is consumed by the next Checkpoint as
	// the causality ID for its journal events: HACluster.Rebalance sets
	// it (under its lock) so a post-resync checkpoint chains under the
	// failure arc that triggered it.
	ckptCause uint64
}

// New builds a System.
func New(opts Options) (*System, error) {
	tel := newTelemetry(opts)
	return newSystem(opts, &tel, -1)
}

// newSystem is New over a deployment's shared telemetry: clusters call
// it so every member registers into one registry, emits into one
// journal and traces into one pipeline, each under its own collector
// label. collectorID is -1 for standalone systems.
func newSystem(opts Options, shared *telemetry, collectorID int16) (*System, error) {
	ccfg := collector.Config{}
	tcfg := translator.Config{RateLimit: opts.RateLimit}
	if o := opts.KeyWrite; o != nil {
		c := keywrite.Config{Slots: o.Slots, DataSize: o.DataSize, ChecksumBits: o.ChecksumBits}
		ccfg.KeyWrite, tcfg.KeyWrite = &c, &c
	}
	if o := opts.KeyIncrement; o != nil {
		c := keyincrement.Config{Slots: o.Slots}
		ccfg.KeyIncrement, tcfg.KeyIncrement = &c, &c
		tcfg.KIAggregationRows = o.AggregationRows
	}
	if o := opts.Postcarding; o != nil {
		c := postcarding.Config{Chunks: o.Chunks, Hops: o.Hops, SlotBits: o.SlotBits, Values: o.Values}
		ccfg.Postcarding, tcfg.Postcarding = &c, &c
		tcfg.PostcardCacheRows = o.CacheRows
		tcfg.PostcardRedundancy = o.Redundancy
	}
	if o := opts.Append; o != nil {
		c := appendlist.Config{Lists: o.Lists, EntriesPerList: o.EntriesPerList, EntrySize: o.EntrySize}
		ccfg.Append, tcfg.Append = &c, &c
		tcfg.AppendBatch = o.Batch
	}
	host, err := collector.New(ccfg)
	if err != nil {
		return nil, err
	}
	s := &System{host: host, collectorID: collectorID}
	s.telemetry, s.obsScope = shared.member(collectorID)
	tr, err := translator.NewScoped(tcfg, host.Listener(), s.obsScope)
	if err != nil {
		return nil, err
	}
	s.tr = tr
	tr.Journal = journal.Emitter{J: s.jr, Comp: journal.CompTranslator, Collector: collectorID}
	if opts.ReporterLoss > 0 {
		s.link = netsim.NewLink(100e9, 500, opts.ReporterLoss, opts.Seed)
	}
	// Translator → collector is the lossless RDMA hop: the translator
	// posts a window's verbs to the host's send queue, and its doorbell
	// executes them and returns the completion synchronously.
	tr.PreTouch = host.Device().PreTouch
	tr.Emit, tr.Doorbell = host.Post, host.Doorbell
	return s, nil
}

// ErrNotDTA is returned by Reporter.SubmitFrame for a frame not
// addressed to the DTA port: user traffic, which a translator forwards
// instead of ingesting.
var ErrNotDTA = translator.ErrNotDTA

// Reporter attaches a new reporter switch with the given ID. Reports are
// validated in memory, staged by value and handed to the translator —
// the same zero-allocation chain an engine's reporters use, minus the
// queue. The lossy-link model accounts the exact on-the-wire frame
// size of every report.
func (s *System) Reporter(switchID uint32) *Reporter {
	return &Reporter{switchID: switchID, systems: []*System{s}}
}

// Advance moves the system clock forward (for rate limiting and link
// modelling).
func (s *System) Advance(ns uint64) { s.now.Add(ns) }

// Now returns the system clock in nanoseconds, including any injected
// skew (SetClockSkew).
func (s *System) Now() uint64 { return uint64(int64(s.now.Load()) + s.skew.Load()) }

// SetClockSkew injects a signed offset onto this collector's clock — the
// chaos plane's skew/step fault. A negative step makes Now jump
// backwards (non-monotonic wall time); downstream consumers tolerate it:
// the translator's token bucket clamps refills on time reversal, and WAL
// timestamp deltas are signed varints, so recovery decodes skewed
// records exactly. Safe concurrently with ingest.
func (s *System) SetClockSkew(d int64) { s.skew.Store(d) }

// ClockSkew returns the injected clock offset in nanoseconds.
func (s *System) ClockSkew() int64 { return s.skew.Load() }

// deliver carries one staged record across the (optional) lossy link
// into the translator. The link is charged the exact on-the-wire size
// the report occupies as a frame.
func (s *System) deliver(rec *wire.StagedReport, nowNs uint64) error {
	if s.link != nil {
		if _, dropped := s.link.Send(nowNs, rec.FrameLen()); dropped {
			// The translator never runs for a dropped report, so it
			// cannot clear a trace handle installed for this report —
			// clear it here so a later report can't stamp a recycled
			// trace slot.
			s.tr.SetTraceHandle(trace.Handle{})
			return nil // best-effort: silently lost, like UDP
		}
	}
	return s.tr.ProcessStaged(rec, nowNs)
}

// LookupValue queries the Key-Write store: the value stored under key,
// if it is still reconstructible (plurality vote over n slots).
func (s *System) LookupValue(key Key, n int) (data []byte, ok bool, err error) {
	res, err := s.host.QueryKeyWrite(key, n, 1)
	if err != nil {
		return nil, false, err
	}
	return res.Data, res.Found, nil
}

// LookupPath queries the Postcarding store: the per-hop values recorded
// for key across n redundant chunks.
func (s *System) LookupPath(key Key, n int) (values []uint32, ok bool, err error) {
	res, err := s.host.QueryPostcards(key, n)
	if err != nil {
		return nil, false, err
	}
	return res.Values, res.Found, nil
}

// LookupCount queries the Key-Increment store: the count-min estimate
// for key over n counters.
func (s *System) LookupCount(key Key, n int) (uint64, error) {
	return s.host.QueryCount(key, n)
}

// AppendPoller reads entries out of one Append list.
type AppendPoller = appendlist.Poller

// Poller returns a reader over one Append list. Call Flush first to push
// out partial translator batches.
func (s *System) Poller(list int) (*AppendPoller, error) {
	return s.host.AppendPoller(list)
}

// Flush forces out partial Append batches, cached postcards and pending
// Key-Increment aggregates (end of a measurement epoch). With a WAL
// attached it returns once the log is as durable as the sync policy
// promises at a batch boundary.
func (s *System) Flush() error {
	if err := s.flushAt(s.Now()); err != nil {
		return err
	}
	return s.walSettle()
}

// flushAt is Flush with an explicit timestamp and without the wait for
// the log (engine shard workers, which settle once per Drain).
func (s *System) flushAt(nowNs uint64) error {
	if err := s.tr.Flush(nowNs); err != nil {
		return err
	}
	// A flush is a batch boundary for the WAL sync policy too: it
	// requests the commit; Flush and the engine's Drain wait for it.
	return s.walCommitBatch()
}

// ImmediateEvent is a push notification raised by a report sent with
// the immediate flag.
type ImmediateEvent struct {
	QPN uint32
	Imm uint32
}

// Events exposes the collector's push-notification channel (reports sent
// with the immediate flag). The re-typing pump over the internal channel
// is started once, on the first call, and every call returns the same
// channel: the stream is single-consumer. Fanning it out to multiple
// receivers would split events between them nondeterministically —
// multiplex behind one receiver instead. (Earlier versions spawned a
// fresh pump per call, so concurrent callers silently stole each other's
// events and every pump goroutine leaked.)
func (s *System) Events() <-chan ImmediateEvent {
	s.eventsOnce.Do(func() {
		s.events = make(chan ImmediateEvent, cap(s.host.Events))
		go func() {
			for ev := range s.host.Events {
				s.events <- ImmediateEvent{QPN: ev.QPN, Imm: ev.Imm}
			}
			close(s.events)
		}()
	})
	return s.events
}

// Stats reports end-to-end counters.
type Stats struct {
	Reports       uint64
	RDMAWrites    uint64
	RDMAAtomics   uint64
	RateDropped   uint64
	Resyncs       uint64
	PostcardEmits uint64
	AppendFlushes uint64
	LinkDropped   uint64
	// MemInstrPerReport is Fig. 8's metric: DMA memory instructions per
	// report, one per cache line a WRITE stores and two per FETCH&ADD.
	MemInstrPerReport float64
}

// Stats snapshots system counters. It only reads: concurrent calls
// return the same figures.
func (s *System) Stats() Stats {
	dev := s.host.Device().Stats
	tst := s.tr.Stats()
	st := Stats{
		Reports:       tst.Reports,
		RDMAWrites:    tst.RDMAWrites,
		RDMAAtomics:   tst.RDMAAtomics,
		RateDropped:   tst.RateDropped,
		Resyncs:       tst.Resyncs,
		PostcardEmits: tst.PostcardEmits,
		AppendFlushes: tst.AppendFlushes,
	}
	if tst.Reports > 0 {
		st.MemInstrPerReport = float64(dev.WriteLines+2*dev.FetchAdds) / float64(tst.Reports)
	}
	if s.link != nil {
		st.LinkDropped = s.link.Dropped
	}
	return st
}

// InstallLatencyQuery installs the §7 query-enhancing extension on the
// translator: postcards are aggregated per flow and only flows whose
// per-hop values sum beyond threshold are appended (as 16B key + 8B sum
// entries) to the given list. The returned query exposes statistics.
func (s *System) InstallLatencyQuery(cacheRows, hops int, threshold uint64, list uint32) *translator.ThresholdQuery {
	q := translator.NewThresholdQuery(cacheRows, hops, threshold, list)
	s.tr.InstallThresholdQuery(q)
	return q
}

// Host exposes the underlying collector (advanced use, benchmarks).
func (s *System) Host() *collector.Host { return s.host }

// Translator exposes the underlying translator (advanced use).
func (s *System) Translator() *translator.Translator { return s.tr }
