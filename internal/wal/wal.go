// Package wal is the collector's durability layer: an append-only,
// segmented, CRC-framed operation log recording every admitted DTA
// report at the translator's ingest entry, before primitive processing.
//
// The paper's collectors hold their primitive stores in plain RDMA-
// written memory, so a collector crash loses every store. Logging the
// admitted reports — not the RDMA packets they expand into — keeps the
// record tiny (one compact staged record per report, derived from
// wire.StagedReport's layout) and makes recovery a replay through the
// exact same translator pipeline that built the lost state, so the
// recovered stores, batcher heads and aggregation caches are
// byte-identical to the pre-crash state up to the last durable record
// (exact over admitted reports; with a translator rate limiter the
// replay's fresh token bucket may restore best-effort reports the live
// run shed — see translator.Translator.WAL).
// The log doubles as an exact replication stream: the HA layer ships a
// peer's log suffix to a rejoining collector (see internal/ha), which
// is precise where index-aligned snapshot suffixes are only
// approximate under concurrent producers.
//
// Layout: a directory of segment files named <base-LSN>.wseg, each a
// 16-byte header (magic + base LSN) followed by CRC-framed records:
//
//	[4B CRC-32C][1B body length][1B group bitmap]
//	[uvarint Δns][present 8-byte groups of the staged image][payload]
//
// The body starts from wire.StagedReport's fixed-size EncodeTo image,
// compacted because the log's cost is dominated by bytes written: the
// LSN is implicit (a record's LSN is the segment base plus its index),
// the ingest timestamp is a varint delta from the previous record, and
// all-zero 8-byte groups of the fixed image (most of it, for any single
// primitive) are elided via the bitmap — a Key-Write record with a
// 4-byte value costs ~36 bytes instead of ~68. The CRC covers everything
// after itself, so a torn tail, a truncated segment or a bit flip is
// detected at the first damaged record and recovery stops exactly there.
// A checkpoint (snapshot image + LSN, see Checkpoint) bounds replay and
// lets segments wholly below its LSN be reclaimed.
//
// # Who owns what
//
// The writer is two halves joined by a single-producer / single-consumer
// byte ring. What is a function of the record sequence alone belongs to
// the appender (the translator's ingest context): framing, the
// per-segment timestamp-delta chain, segment cut points, LSNs. Stage
// frames a record straight into the ring through a cursor only the
// appender sees. What is a function of the disk belongs to the flusher
// goroutine: files, write-out, rotation I/O, fsyncs, the commit loop. It
// never looks inside a record — it moves published bytes from the ring
// to the open segment, and learns where to cut (and which records carry
// a sampled trace) from a small side queue published with them.
//
// # Publication
//
// A record is appended when it is published: Publish hands the flusher,
// and every reader, all records staged so far. The appender publishes
// (a) at every translator doorbell (translator.Translator.WALPublish:
// once per window of a chunk on the engine path, once per record on the
// synchronous one; a doorbell with nothing staged publishes nothing),
// (b) inside CommitBatch and Close, (c)
// when unpublished bytes pass publishEarlyBytes, and (d) always before it
// waits on a full ring, whose bytes only it can release. LastLSN, Sync,
// Flush and WStats — safe from any goroutine — see published records
// only.
//
// # Durability contract
//
// Acknowledged means durable. When Writer.Sync, Writer.Settle or
// Writer.Close returns nil — and so when the callers built on them
// return: Engine.Drain, System.Flush, SyncWAL, Checkpoint, CloseWAL —
// every record appended before the call is on stable storage. The one
// exception is degraded-ack mode (Policy.DegradeFsync), where the same
// calls return once the records have reached the OS, the skipped fsync
// is counted in Stats.DegradedAcks and DurableLSN holds still.
//
// Nobody on the ingest path waits for the disk to get there. The writer
// keeps monotone marks over the record sequence,
//
//	durable ≤ acked ≤ written ≤ consumed ≤ appended ≤ staged,   wanted ≤ appended
//
// and one commit loop in the flusher goroutine: a batch boundary
// (CommitBatch) only raises the wanted mark to the appended one; the
// flusher, whenever wanted is ahead of acked, issues ONE fsync covering
// everything it has consumed, publishes the marks and wakes the waiters.
// Every durability wait is "until acked ≥ the mark I saw", which returns
// at once when an earlier fsync already covers it and lets any number of
// waiters on any goroutine share one fsync. The three sync policies are
// parameter points of that loop: batch raises the wanted mark at batch
// boundaries, interval has the flusher commit un-durable records no
// later than Policy.Interval after its last commit (so at most one
// data-path fsync per Interval), none leaves it to explicit Sync calls.
// consumed runs ahead of written only on a failed log, which discards.
// The flusher consumes nothing while it sits in an fsync, so at most
// ringBytes can be staged behind a commit in flight before Stage blocks.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dta/internal/obs"
	"dta/internal/obs/journal"
	"dta/internal/obs/trace"
	"dta/internal/vfs"
	"dta/internal/wire"
)

// SyncMode selects when the writer fsyncs, trading ingest cost for
// recovery-point objective (RPO).
type SyncMode int

const (
	// SyncNone never fsyncs on the data path: the OS flushes when it
	// pleases. Cheapest; a host crash can lose everything since the last
	// Sync/Checkpoint/Close, a process crash alone at most the ring.
	SyncNone SyncMode = iota
	// SyncInterval has the flusher commit un-durable records no later
	// than Policy.Interval after its last commit, whether or not more
	// records arrive. The age runs from the last commit, not from the
	// record's arrival, so the first record after an idle gap longer than
	// Interval is fsynced at once.
	SyncInterval
	// SyncBatch requests a commit at every ingest batch boundary (each
	// engine worker dequeue batch; every Flush on the synchronous path)
	// without waiting for it; a Drain / Flush returns only once the
	// commits posted before it are acknowledged. Strongest.
	SyncBatch
)

// File is what Policy.WrapFile makes of a segment file (or of the log
// directory, opened to be fsynced). Every call is off the ingest path.
type File = vfs.File

// Policy configures a Writer.
type Policy struct {
	// Mode selects the sync policy (default SyncNone).
	Mode SyncMode
	// Interval is the SyncInterval period (0 = 100ms).
	Interval time.Duration
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size (0 = 64 MiB). Smaller segments reclaim space in
	// finer checkpoint increments but cost more rotations (each one
	// finalises a file).
	SegmentBytes int64
	// WrapFile, when set, wraps every segment file — and the directory
	// handle it fsyncs after creating one — the flusher opens on the
	// default file system (a modelled disk), and nothing else.
	WrapFile func(*os.File) File
	// DegradeFsync, when > 0, bounds tolerated fsync latency: once
	// degradeEnterAfter consecutive data-path fsyncs exceed it, the
	// writer enters degraded-ack mode — commits are acknowledged at the
	// OS-write boundary without fsyncing, counted in Stats.DegradedAcks,
	// and DurableLSN stops advancing — instead of stalling ingest behind
	// a sick disk. Every degradeProbeEvery-th commit still fsyncs as a
	// probe; one back under the bound exits degraded mode. Both
	// transitions are journaled (EvWALDegradeEnter/Exit).
	DegradeFsync time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = 100 * time.Millisecond
	}
	if p.SegmentBytes <= 0 {
		p.SegmentBytes = 64 << 20
	}
	return p
}

// ParsePolicy parses a CLI policy spec: "none", "batch", "interval" or
// "interval=DURATION" (e.g. "interval=50ms").
func ParsePolicy(s string) (Policy, error) {
	mode, arg, _ := strings.Cut(strings.TrimSpace(s), "=")
	switch mode {
	case "none", "":
		return Policy{Mode: SyncNone}, nil
	case "batch", "every-batch":
		return Policy{Mode: SyncBatch}, nil
	case "interval":
		p := Policy{Mode: SyncInterval}
		if arg != "" {
			d, err := time.ParseDuration(arg)
			if err != nil || d <= 0 {
				return Policy{}, fmt.Errorf("wal: bad sync interval %q", arg)
			}
			p.Interval = d
		}
		return p, nil
	default:
		return Policy{}, fmt.Errorf("wal: unknown sync policy %q (want none, interval[=d] or batch)", s)
	}
}

// Record framing constants.
const (
	// recordHeaderLen frames every record: CRC, body length, group
	// bitmap. The varint timestamp delta and the group/payload bytes
	// follow as the body.
	recordHeaderLen = 4 + 1 + 1
	// MaxRecordLen bounds one framed record.
	MaxRecordLen = recordHeaderLen + binary.MaxVarintLen64 + wire.MaxStagedEncodedLen

	// segHeaderLen is the per-segment file header: magic + base LSN.
	segHeaderLen = 8 + 8
	// segSuffix names segment files; the stem is the base LSN in
	// zero-padded hex so lexical order is LSN order.
	segSuffix = ".wseg"
)

var segMagic = [8]byte{'D', 'T', 'A', 'W', 'A', 'L', '0', '1'}

// castagnoli frames records with CRC-32C (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segName(base uint64) string {
	return fmt.Sprintf("%016x%s", base, segSuffix)
}

func segBase(name string) (uint64, bool) {
	stem, ok := strings.CutSuffix(name, segSuffix)
	if !ok || len(stem) != 16 {
		return 0, false
	}
	base, err := strconv.ParseUint(stem, 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// segBases lists the directory's segment base LSNs in ascending order.
// A directory that does not exist yet is an empty log, not an error:
// readers (Recover, Segments, Bounds) run before any writer has created
// it.
func segBases(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var bases []uint64
	for _, e := range ents {
		if base, ok := segBase(e.Name()); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// Stats snapshots a writer's activity. It is a view over the writer's
// obs counters — the same cells back the Prometheus exposition.
type Stats struct {
	// LastLSN is the highest LSN appended (0 = empty log).
	LastLSN uint64
	// DurableLSN is the highest LSN guaranteed on stable storage.
	DurableLSN uint64
	// Appends, Syncs and Rotations count operations since Open.
	// Publishes counts the publications the appends arrived in: one per
	// ingest call, so Appends/Publishes is the mean chunk.
	Appends   uint64
	Publishes uint64
	Syncs     uint64
	Rotations uint64
	// Bytes counts log bytes appended since Open (excluding headers of
	// pre-existing segments).
	Bytes uint64
	// RingHighWater is the deepest ring occupancy observed, in bytes —
	// how close the flusher has come to stalling ingest. At the ring size
	// (1 MiB) Stage blocks.
	RingHighWater uint64
	// RingStalls counts records that found the ring full and had to
	// wait for the flusher — the slow-disk backpressure signal.
	RingStalls uint64
	// NudgesDropped counts flusher wakeups coalesced into an already-
	// pending nudge: normal under load (the flusher was awake anyway),
	// telling when correlated with ring stalls on a slow disk.
	NudgesDropped uint64
	// DegradedAcks counts commits acknowledged at the OS-write boundary
	// without an fsync in degraded-ack mode (Policy.DegradeFsync);
	// Degraded reports whether the writer is in that mode now.
	DegradedAcks uint64
	Degraded     bool
	// FailedErrno is the errno of the flusher's sticky failure (0 =
	// healthy, -1 = failed with a non-errno error).
	FailedErrno int64
}

// walCounters is the live metric storage behind Stats (Appends is the
// writer's head mark itself). Appender-side cells (publishes, stalls,
// HWM) and flusher-side cells (syncs, rotations, bytes) are
// single-writer; nudgesDropped is bumped by whoever nudges. All are
// atomics, so WStats and the exposition read them concurrently.
type walCounters struct {
	publishes      *obs.Counter
	syncs          *obs.Counter
	rots           *obs.Counter
	bytes          *obs.Counter
	ringStalls     *obs.Counter
	nudgesDropped  *obs.Counter
	degradedAcks   *obs.Counter
	coalesced      *obs.Counter
	ringHWM        *obs.Gauge
	flushNs        *obs.Histogram // one write of ring bytes to the OS
	fsyncNs        *obs.Histogram
	commitWaitNs   *obs.Histogram // blocked durability waits
	commitRecords  *obs.Histogram // records newly covered per fsync
	publishRecords *obs.Histogram // records per publication
}

func newWALCounters(sc *obs.Scope) walCounters {
	return walCounters{
		publishes:     sc.Counter("dta_wal_publishes_total", "Publications: atomic hand-overs of staged records to the flusher, one per ingest call."),
		syncs:         sc.Counter("dta_wal_syncs_total", "Segment fsyncs."),
		rots:          sc.Counter("dta_wal_rotations_total", "Segment rotations."),
		bytes:         sc.Counter("dta_wal_bytes_total", "Log bytes appended."),
		ringStalls:    sc.Counter("dta_wal_ring_stalls_total", "Records that found the ring full and blocked on the flusher."),
		nudgesDropped: sc.Counter("dta_wal_nudges_dropped_total", "Flusher wakeups coalesced into an already-pending nudge."),
		degradedAcks:  sc.Counter("dta_wal_degraded_acks_total", "Commits acknowledged without fsync in degraded-ack mode."),
		coalesced:     sc.Counter("dta_wal_commits_coalesced_total", "Sync calls that needed no fsync of their own: already covered, or joined a commit another caller had requested."),
		ringHWM:       sc.Gauge("dta_wal_ring_high_water", "Deepest ring occupancy observed, in bytes (ring size 1 MiB)."),
		flushNs:       sc.Histogram("dta_wal_flush_ns", "Nanoseconds per write of ring bytes to the OS."),
		fsyncNs:       sc.Histogram("dta_wal_fsync_ns", "Nanoseconds per segment fsync."),
		commitWaitNs:  sc.Histogram("dta_wal_commit_wait_ns", "Nanoseconds a Drain / Flush / SyncWAL spent blocked until its records were acknowledged."),
		commitRecords: sc.Histogram("dta_wal_commit_records", "Records newly made durable per fsync (the group-commit size)."),

		publishRecords: sc.Histogram("dta_wal_publish_records", "Records per publication (sum = dta_wal_appends_total)."),
	}
}

// Writer appends records to a segmented log. Staging is single-writer:
// the owning translator's ingest context (one engine shard worker, or
// the synchronous caller) calls Stage, Publish, Append, CommitBatch and
// Close. Everything that only reads or waits on the marks — Sync,
// Settle, Flush, LastLSN, DurableLSN, WStats — is safe from any
// goroutine, so a control plane can force or await durability beside a
// running worker. A shard worker's per-record cost lands 1:1 on
// end-to-end throughput, so Stage only frames — no record copy, no
// shared state, no syscall, no clock read; a full ring blocks it, the
// natural backpressure when the disk cannot keep up with ingest.
type Writer struct {
	dir string
	fs  vfs.FS // segments open and the directory syncs through it
	pol Policy
	// The sync policy as the commit loop sees it (see the package doc).
	commitOnBatch bool          // batch: CommitBatch raises want
	maxAge        time.Duration // interval: the flusher commits un-durable records this long after its last commit; 0 = never by age
	ackAtWrite    bool          // none: no data-path commit, so a trace's ack is its OS write
	startLSN      uint64        // LSN of the first record this Writer stages

	// ring holds framed records at their byte position mod ringBytes; the
	// MaxRecordLen bytes past ringBytes are spill — a record is framed
	// contiguously and what ran past the end is copied to the front. side
	// carries, in byte order, what the flusher cannot see in the bytes.
	ring []byte
	side [sideEntries]sideEntry

	// Appender-owned: records and bytes staged, bytes published, side
	// entries staged, the tail as last seen, and the per-segment state.
	recs, cur  uint64
	pubBytes   uint64
	sideStaged uint64
	tailSeen   uint64
	segBytes   int64
	prevNow    uint64 // previous record's timestamp (delta encoding)

	// Published by the appender. pub is the flusher's view: records and
	// bytes appended, each mod 2^32, in one word — exact, because far
	// fewer than 2^32 of either fit in the ring ahead of the flusher's own
	// counts. head is everyone else's view: records appended.
	_        [64]byte
	pub      atomic.Uint64
	head     atomic.Uint64
	sideHead atomic.Uint64 // stored before pub: covers every entry at or below it
	want     atomic.Uint64 // a commit has been requested up to here, by anyone (records)

	// Published by the flusher, each monotone: tail in bytes released to
	// the appender, the commit marks in records since Create.
	_        [64]byte
	tail     atomic.Uint64
	sideTail atomic.Uint64
	written  atomic.Uint64 // handed to the OS
	acked    atomic.Uint64 // covered by a completed commit: an fsync or a degraded ack
	durable  atomic.Uint64 // covered by a completed fsync
	// A Sync over records a degraded ack already acknowledged is still a
	// request (counted, pacing the probe) that want cannot express — it is
	// not behind. It takes a ticket from reaskWant and waits for reaskDone,
	// which the flusher raises to the tickets seen when its commit began.
	reaskDone atomic.Uint64
	_         [64]byte
	reaskWant atomic.Uint64

	// Waiters on the marks — the appender on tail, everyone else on the
	// commit marks — park on cond; the flusher broadcasts after a commit,
	// after every release, on its first failure and when it exits.
	mu     sync.Mutex
	cond   sync.Cond
	exited bool // flusher gone; guarded by mu

	// wake nudges an idle flusher (a publication that finds it caught up,
	// a commit request); quit asks the flusher to finish, done closes when
	// it has.
	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	flushErr atomic.Pointer[error]
	// failedErrno mirrors the sticky failure's errno for the health
	// exposition (0 = healthy, -1 = non-errno failure).
	failedErrno atomic.Int64
	closed      atomic.Bool

	// degraded flags degraded-ack mode (Policy.DegradeFsync): set and
	// cleared by the flusher, read by Sync, Stats and the exposition.
	degraded atomic.Bool

	ctr walCounters

	// jr publishes segment-lifecycle events (rotations, flusher failure)
	// to the flight recorder, chained under jrCause into one timeline.
	// Set via SetJournal before ingest starts; the zero value is a no-op.
	jr      journal.Emitter
	jrCause uint64

	// Flusher-owned state (no appender access after Create).
	f        File
	consRecs uint64 // records consumed; tail is the same point in bytes
	lastSync int64  // obs.Nanotime of the last commit (age bound)
	// unsynced holds the trace handles whose bytes reached the OS but not
	// yet stable storage (bounded by the tracer's in-flight pool).
	unsynced []trace.Handle
	// Degraded-ack bookkeeping: consecutive over-bound fsyncs (entry
	// trigger), commits while degraded (probe pacing), acks skipped since
	// entry (Exit event payload).
	overBound    int
	degradedReqs int
	degradedSkip uint64
}

// sideEntry tells the flusher what the ring's bytes cannot: a segment
// cut (base != 0: the record starting at pos opens segment base) or a
// sampled trace (th rides the record ending at pos).
type sideEntry struct {
	pos, base uint64
	th        trace.Handle
}

const (
	// ringBytes bounds staged-but-unwritten log bytes per collector.
	ringBytes = 1 << 20
	// publishEarlyBytes of unpublished records make Stage publish without
	// waiting for the ingest call to end: a long chunk feeds the flusher.
	publishEarlyBytes = 64 << 10
	// writeChunkBytes caps one OS write, after which the flusher releases
	// the bytes: the appender refills the ring while the rest drains.
	writeChunkBytes = 64 << 10
	// sideEntries bounds cuts and traces in flight. A cut that finds the
	// queue full waits as for a full ring; a trace stays with the translator.
	sideEntries = 256

	// Degraded-ack pacing (Policy.DegradeFsync): enter after this many
	// consecutive data-path fsyncs over the bound — one slow fsync is
	// noise, a run of them is a sick disk; while degraded, every Nth
	// commit still fsyncs as a recovery probe.
	degradeEnterAfter = 3
	degradeProbeEvery = 8
)

// Create initialises dir (creating it if needed) and opens a Writer
// positioned after the last valid record. An existing torn tail is
// truncated away first, so appends always extend a clean prefix.
func Create(dir string, pol Policy) (*Writer, error) {
	return CreateScoped(vfs.OS{}, dir, pol, nil)
}

// CreateScoped is Create on fs, with the writer's metrics (dta_wal_*)
// registered under the given obs scope. A nil scope keeps the counters
// behind WStats live but unexposed, and disables the histograms.
func CreateScoped(fs vfs.FS, dir string, pol Policy, sc *obs.Scope) (*Writer, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		dir:      dir,
		fs:       fs,
		pol:      pol.withDefaults(),
		ring:     make([]byte, ringBytes+MaxRecordLen),
		lastSync: obs.Nanotime(),
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		ctr:      newWALCounters(sc),
	}
	// One scan of the tail truncates a torn one and says where the log goes
	// on; it reads through the ring, which holds nothing yet.
	tail, _, err := repairTail(fs, dir, w.ring)
	if err != nil {
		return nil, err
	}
	if _, ok := fs.(vfs.OS); ok && pol.WrapFile != nil {
		w.fs = wrapFS{fs, pol.WrapFile}
	}
	w.cond.L = &w.mu
	switch w.pol.Mode {
	case SyncBatch:
		w.commitOnBatch = true
	case SyncInterval:
		w.maxAge = w.pol.Interval
	default:
		w.ackAtWrite = true
	}
	// Watermarks and ring occupancy are read straight off the writer's
	// atomics at exposition time — zero data-path cost.
	sc.CounterFunc("dta_wal_appends_total", "Records appended (published to the flusher).", w.head.Load)
	sc.GaugeFunc("dta_wal_last_lsn", "Highest LSN appended.",
		func() float64 { return float64(w.LastLSN()) })
	sc.GaugeFunc("dta_wal_durable_lsn", "Highest LSN guaranteed on stable storage.",
		func() float64 { return float64(w.DurableLSN()) })
	sc.GaugeFunc("dta_wal_ring_occupancy", "Log bytes appended but not yet written out (ring size 1 MiB).",
		func() float64 {
			tail := w.tail.Load() // before pub: the difference cannot go negative
			return float64(uint32(w.pub.Load()) - uint32(tail))
		})
	sc.GaugeFunc("dta_wal_degraded", "1 while the writer is in degraded-ack mode (fsyncs over Policy.DegradeFsync).",
		func() float64 {
			if w.degraded.Load() {
				return 1
			}
			return 0
		})
	sc.GaugeFunc("dta_wal_failed_errno", "Errno of the flusher's sticky failure (0 = healthy, -1 = non-errno error).",
		func() float64 { return float64(w.failedErrno.Load()) })
	next := uint64(1)
	if tail.Path != "" {
		if w.f, err = w.fs.OpenFile(tail.Path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, err
		}
		if tail.Records > 0 {
			// Force a fresh segment for the first new record: timestamp
			// deltas are per-segment and the old tail's last timestamp is
			// not tracked across runs. The open handle just lets rotate
			// finalise the old tail normally.
			next = tail.Last + 1
			w.segBytes = w.pol.SegmentBytes
		} else {
			// Header-only tail (a crash right after rotation): continue
			// inside it — it holds no timestamps to clash with.
			next = tail.Base
			w.segBytes = tail.Bytes
		}
	} else {
		w.segBytes = w.pol.SegmentBytes // no segment yet: the first record cuts one
		// All segments were reclaimed by a checkpoint: continue the LSN
		// sequence after it instead of restarting at 1.
		next = checkpointLSN(dir) + 1
	}
	w.startLSN = next
	go w.flusher()
	return w, nil
}

// SetJournal threads the flight recorder into the writer. Call it right
// after Create, before the first record: the flusher only touches the
// emitter while consuming, and the first publication happens-after this.
func (w *Writer) SetJournal(e journal.Emitter) {
	w.jr = e
	w.jrCause = e.NewCause()
}

// err surfaces the first flusher failure into the appender's control
// flow: once the log can no longer persist, every subsequent operation
// fails rather than silently acknowledging unlogged reports.
func (w *Writer) err() error {
	if p := w.flushErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Dir returns the log directory.
func (w *Writer) Dir() string { return w.dir }

// LastLSN returns the highest LSN appended (0 = nothing logged). Safe
// to call concurrently with the appender.
func (w *Writer) LastLSN() uint64 { return w.startLSN + w.head.Load() - 1 }

// DurableLSN returns the highest LSN guaranteed on stable storage. Safe
// to call concurrently with the appender.
func (w *Writer) DurableLSN() uint64 { return w.startLSN + w.durable.Load() - 1 }

// WStats snapshots the writer's counters. Safe to call concurrently
// with the appender and the flusher (the cells are atomics).
func (w *Writer) WStats() Stats {
	return Stats{
		LastLSN:       w.LastLSN(),
		DurableLSN:    w.DurableLSN(),
		Appends:       w.head.Load(),
		Publishes:     w.ctr.publishes.Load(),
		Syncs:         w.ctr.syncs.Load(),
		Rotations:     w.ctr.rots.Load(),
		Bytes:         w.ctr.bytes.Load(),
		RingHighWater: uint64(w.ctr.ringHWM.Load()),
		RingStalls:    w.ctr.ringStalls.Load(),
		NudgesDropped: w.ctr.nudgesDropped.Load(),
		DegradedAcks:  w.ctr.degradedAcks.Load(),
		Degraded:      w.degraded.Load(),
		FailedErrno:   w.failedErrno.Load(),
	}
}

// Append is Stage + Publish for one untraced record, for tests that log
// record by record; ingest stages and publishes per window instead.
func (w *Writer) Append(rec *wire.StagedReport, nowNs uint64) (uint64, error) {
	lsn, err := w.Stage(rec, nowNs, trace.Handle{})
	w.Publish()
	return lsn, err
}

// Stage frames one staged report with its ingest timestamp into the
// ring and returns the LSN it will carry. Nobody else sees the record
// until Publish. th is the report's data-plane trace (invalid when
// untraced): the log takes shared ownership, stamps the ring stage and
// lets the flusher finish the trace at the durable-ack boundary. A full
// ring blocks until the flusher releases space.
func (w *Writer) Stage(rec *wire.StagedReport, nowNs uint64, th trace.Handle) (uint64, error) {
	if err := w.err(); err != nil {
		return 0, err
	}
	if w.closed.Load() {
		return 0, errClosed
	}
	cut := w.segBytes >= w.pol.SegmentBytes
	if w.cur+MaxRecordLen-w.tailSeen > ringBytes || cut && w.sideStaged-w.sideTail.Load() == sideEntries {
		if err := w.waitRoom(th); err != nil {
			return 0, err
		}
	}
	if cut {
		// This record opens a fresh segment; timestamp deltas restart.
		w.side[w.sideStaged%sideEntries] = sideEntry{pos: w.cur, base: w.startLSN + w.recs}
		w.sideStaged++
		w.segBytes, w.prevNow = segHeaderLen, 0
	}
	o := w.cur & (ringBytes - 1)
	b := w.ring[o : o+MaxRecordLen]
	off := recordHeaderLen
	off += binary.PutVarint(b[off:], int64(nowNs-w.prevNow))
	n, bitmap := rec.EncodeGroupsTo(b[off:])
	total := off + n
	b[4] = byte(total - recordHeaderLen)
	b[5] = bitmap
	binary.BigEndian.PutUint32(b[0:4], crc32.Checksum(b[4:total], castagnoli))
	if end := int(o) + total; end > ringBytes {
		copy(w.ring, w.ring[ringBytes:end])
	}
	w.prevNow = nowNs
	w.segBytes += int64(total)
	w.cur += uint64(total)
	w.recs++
	if th.Valid() && w.sideStaged-w.sideTail.Load() < sideEntries && th.OwnWAL() {
		th.Stamp(trace.StWALRing)
		w.side[w.sideStaged%sideEntries] = sideEntry{pos: w.cur, th: th}
		w.sideStaged++
	}
	if w.cur-w.pubBytes >= publishEarlyBytes {
		w.Publish()
	}
	return w.startLSN + w.recs - 1, nil
}

var errClosed = errors.New("wal: writer closed")

// hasRoom refreshes the appender's view of the flusher's progress and
// reports whether one more record and one more side entry fit.
func (w *Writer) hasRoom() bool {
	w.tailSeen = w.tail.Load()
	return w.cur+MaxRecordLen-w.tailSeen <= ringBytes && w.sideStaged-w.sideTail.Load() < sideEntries
}

// waitRoom blocks the appender until the flusher has released room. The
// flusher lagging a whole ring behind is the slow-disk stall: counted
// once per wait, and flagged on the stalled report's trace.
func (w *Writer) waitRoom(th trace.Handle) error {
	if w.hasRoom() {
		return nil
	}
	// Only published bytes can be released: publish before waiting. That
	// also wakes the flusher, if it was idle.
	w.Publish()
	w.ctr.ringStalls.Inc()
	th.Flag(trace.FStall)
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.hasRoom() {
		if err := w.err(); err != nil || w.exited {
			return cmp.Or(err, errClosed)
		}
		w.cond.Wait()
	}
	return nil
}

// Publish appends every record staged so far: one store makes them
// visible to the flusher, one to everybody else. No-op with nothing
// staged. Appender-only.
func (w *Writer) Publish() {
	n := w.recs - w.head.Load()
	if n == 0 {
		return
	}
	if w.sideHead.Load() != w.sideStaged {
		w.sideHead.Store(w.sideStaged)
	}
	prev := w.pubBytes
	w.pubBytes = w.cur
	w.pub.Store(w.recs<<32 | w.cur&(1<<32-1))
	w.head.Store(w.recs)
	w.ctr.publishes.Inc()
	w.ctr.publishRecords.Observe(n)
	// Wake the flusher if it may have gone (or be going) idle: reading
	// tail AFTER publishing closes the sleep race — a flusher that decided
	// to sleep had released everything before this publication, so its
	// tail is visible here and the nudge fires. The same load refreshes
	// the appender's view and samples the ring's high-water mark.
	w.tailSeen = w.tail.Load()
	if w.tailSeen >= prev {
		w.nudge()
	}
	w.ctr.ringHWM.SetMax(int64(w.cur - w.tailSeen))
}

// nudge wakes an idle flusher (non-blocking: a pending wake suffices —
// coalesced nudges are counted, not lost).
func (w *Writer) nudge() {
	select {
	case w.wake <- struct{}{}:
	default:
		w.ctr.nudgesDropped.Inc()
	}
}

// post raises the wanted mark to n and reports whether it moved: false
// means a commit already requested (in flight or done) covers n.
func (w *Writer) post(n uint64) bool {
	for {
		cur := w.want.Load()
		if cur >= n {
			return false
		}
		if w.want.CompareAndSwap(cur, n) {
			w.nudge()
			return true
		}
	}
}

// await blocks until mark reaches n, the log fails or the flusher is
// gone — a waiter never outlives the goroutine that would wake it.
func (w *Writer) await(mark *atomic.Uint64, n uint64) error {
	if mark.Load() < n {
		w.mu.Lock()
		for mark.Load() < n && w.err() == nil && !w.exited {
			w.cond.Wait()
		}
		w.mu.Unlock()
	}
	return w.err()
}

// awaitCommit is await on a mark a commit publishes (acked, reaskDone),
// timing the waits that block.
func (w *Writer) awaitCommit(mark *atomic.Uint64, n uint64) error {
	if mark.Load() >= n {
		return w.err()
	}
	span := obs.Start(w.ctr.commitWaitNs)
	err := w.await(mark, n)
	span.End()
	return err
}

// wakeWaiters releases every parked await to re-check its mark. Taking
// the lock orders the flusher's mark store before a waiter's check or
// its park, so no wakeup is lost.
func (w *Writer) wakeWaiters() {
	w.mu.Lock()
	w.mu.Unlock()
	w.cond.Broadcast()
}

// Flush returns once every record appended so far has been handed to
// the OS, without fsyncing: readers of the segment files then observe
// them (the log-shipping resync path reads peers' logs this way). The
// flusher writes out whatever is published, so it requests nothing.
func (w *Writer) Flush() error {
	n := w.head.Load()
	if w.written.Load() >= n {
		return w.err()
	}
	w.nudge()
	return w.await(&w.written, n)
}

// Sync makes every appended record durable under any policy: it
// requests a commit up to the current head and waits for it. It returns
// at once when an earlier fsync already covers the head, and shares one
// fsync with every other caller waiting at the same time. In
// degraded-ack mode a Sync with nothing new to acknowledge still waits
// for a commit of its own, so every call is counted and every
// degradeProbeEvery-th probes (calls waiting at the same time share one).
func (w *Writer) Sync() error {
	n := w.head.Load()
	if w.durable.Load() >= n {
		w.ctr.coalesced.Inc()
		return w.err()
	}
	if w.post(n) {
		return w.awaitCommit(&w.acked, n)
	}
	w.ctr.coalesced.Inc()
	if w.degraded.Load() && w.acked.Load() >= n {
		ticket := w.reaskWant.Add(1)
		w.nudge()
		return w.awaitCommit(&w.reaskDone, ticket)
	}
	return w.awaitCommit(&w.acked, n)
}

// CommitBatch marks an ingest batch boundary (an engine worker's dequeue
// batch; Flush on the synchronous path): it publishes, and under
// SyncBatch requests a commit of everything appended so far without
// waiting for it (Settle waits). The error is the log's sticky failure,
// if any. Appender-only.
func (w *Writer) CommitBatch() error {
	w.Publish()
	if w.commitOnBatch {
		w.post(w.recs)
	}
	return w.err()
}

// Settle blocks until every commit requested so far (CommitBatch, Sync)
// has been acknowledged. It requests none itself, so under SyncNone and
// SyncInterval it has nothing to wait for.
func (w *Writer) Settle() error { return w.awaitCommit(&w.acked, w.want.Load()) }

// Close publishes, makes the log durable — a real fsync even in
// degraded-ack mode — closes it and stops the flusher. The writer is
// unusable afterwards. Appender-only.
func (w *Writer) Close() error {
	if w.closed.Swap(true) {
		return nil
	}
	w.Publish()
	close(w.quit)
	<-w.done
	return w.err()
}

// flusher is the background half of the writer: it moves published
// bytes from the ring to the segment files, rotates where the appender
// cut, and runs the commit loop. All file state is flusher-owned after
// Create.
func (w *Writer) flusher() {
	defer close(w.done)
	defer func() {
		if w.f != nil {
			// Leave a fully durable log behind, however sick the disk.
			if w.err() == nil && w.durable.Load() < w.consRecs {
				w.syncPoint(true)
			}
			w.f.Close()
		}
		w.abortUnsynced()
		w.mu.Lock()
		w.exited = true
		w.mu.Unlock()
		w.cond.Broadcast()
	}()
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for {
		// want is sampled before pub: a request never runs ahead of the
		// records it covers, so after this pass consRecs ≥ want and one
		// commit serves it whole.
		want := w.want.Load()
		reask := w.reaskWant.Load()
		raw := w.pub.Load()
		w.consume(raw)
		// The commit loop. A commit is due when someone wants records
		// acknowledged that are not (batch boundaries, Sync), when Sync
		// re-asks over a degraded ack, or when un-acknowledged records
		// exist and the last commit is maxAge old (interval).
		acked := w.acked.Load()
		due := want > acked || reask > w.reaskDone.Load()
		sleep := time.Second
		if w.maxAge > 0 && w.consRecs > acked {
			sleep = w.maxAge - time.Duration(obs.Nanotime()-w.lastSync)
			due = due || sleep <= 0
		}
		if due {
			w.commit(reask)
			continue
		}
		if w.pub.Load() == raw {
			// Idle: sleep until nudged — or until the last commit is
			// maxAge old with records behind it. The appender's
			// publish-then-check-tail ordering guarantees a nudge for the
			// publication that races this sleep decision; the long timer
			// is a belt-and-suspenders bound, not a poll.
			idle.Reset(sleep)
			select {
			case <-w.wake:
			case <-idle.C:
			case <-w.quit:
				if w.pub.Load() == raw {
					return
				}
			}
		}
	}
}

// consume moves the bytes published as pub (rebuilt against the
// flusher's own counts) from the ring to the segment files, rotating at
// every cut the appender staged among them, and releases them — unwritten
// once the log has failed: the appender sees the error on its next call;
// blocking it would wedge the whole ingest pipeline behind a dead disk.
func (w *Writer) consume(pub uint64) {
	tail := w.tail.Load()
	recs := w.consRecs + uint64(uint32(pub>>32)-uint32(w.consRecs))
	end := tail + uint64(uint32(pub)-uint32(tail))
	if recs == w.consRecs {
		return
	}
	i, sideEnd := w.sideTail.Load(), w.sideHead.Load()
	for ; i < sideEnd; i++ {
		e := &w.side[i%sideEntries]
		if e.pos > end || e.base != 0 && e.pos == end {
			break // rides a later publication
		}
		w.writeTo(e.pos)
		if e.base != 0 {
			w.rotate(e.base)
		} else {
			w.noteWritten(e.th)
		}
	}
	w.writeTo(end)
	w.sideTail.Store(i)
	w.consRecs = recs
	if w.err() == nil {
		w.written.Store(recs)
	}
	w.wakeWaiters()
}

// writeTo hands the ring's bytes up to pos to the open segment, at most
// writeChunkBytes a write, and releases each piece to the appender.
func (w *Writer) writeTo(pos uint64) {
	for tail := w.tail.Load(); tail < pos; {
		o := tail & (ringBytes - 1)
		n := min(pos-tail, writeChunkBytes, ringBytes-o)
		if w.err() == nil {
			span := obs.Start(w.ctr.flushNs)
			w.fail(writeFull(w.f, w.ring[o:o+n]))
			span.End()
			w.ctr.bytes.Add(n)
		}
		tail += n
		w.tail.Store(tail)
		w.wakeWaiters() // the appender may be waiting for room
	}
}

// commit serves every durability request outstanding with one fsync
// over everything consumed so far (a counted skip in degraded-ack
// mode), then publishes the acked mark — and reaskDone, up to the re-ask
// tickets seen before it began — and wakes the waiters. On a failed log
// it only releases them: await hands each the sticky error.
func (w *Writer) commit(reask uint64) {
	if w.err() == nil && w.f != nil {
		w.syncPoint(false)
	}
	w.lastSync = obs.Nanotime()
	w.acked.Store(w.consRecs)
	w.reaskDone.Store(reask)
	w.wakeWaiters()
}

// fail boxes the first flusher error into the sticky flushErr, mirrors
// its errno for the health exposition and journals it; later calls only
// report err != nil. Flusher-only.
func (w *Writer) fail(err error) bool {
	if err == nil {
		return false
	}
	// Box on the error path only: taking the parameter's address
	// would heap-allocate it on every (overwhelmingly nil) call.
	boxed := err
	if w.flushErr.CompareAndSwap(nil, &boxed) {
		// First failure only: the log just went sticky-dead. Carry the
		// underlying errno (0 when the cause is not a syscall error) so
		// the timeline and the health rule can name the disk's failure.
		var errno syscall.Errno
		if errors.As(err, &errno) {
			w.failedErrno.Store(int64(errno))
			w.jr.Emit(journal.EvWALError, journal.SevError, w.jrCause, uint64(errno), 0, 0)
		} else {
			w.failedErrno.Store(-1)
			w.jr.Emit(journal.EvWALError, journal.SevError, w.jrCause, 0, 0, 0)
		}
		w.wakeWaiters()
	}
	return true
}

// syncPoint is the fsync of one commit: measured in the healthy case, a
// counted skip in degraded-ack mode (force — the flusher's exit, i.e.
// Close — always fsyncs). Everything consumed is with the OS, so the
// fsync covers it. Flusher-only.
func (w *Writer) syncPoint(force bool) {
	if w.degraded.Load() && !force {
		w.degradedReqs++
		if w.degradedReqs%degradeProbeEvery != 0 {
			// Degraded ack: the records are with the OS; DurableLSN
			// intentionally holds still.
			w.ctr.degradedAcks.Inc()
			w.degradedSkip++
			w.finishUnsynced(true)
			return
		}
		// Every degradeProbeEvery-th commit falls through to a real
		// fsync — the recovery probe.
	}
	t0 := obs.Nanotime()
	err := w.f.Sync()
	ns := obs.Nanotime() - t0
	// The newest trace covered by this fsync becomes the fsync
	// histogram's bucket exemplar.
	var exID uint64
	if n := len(w.unsynced); n > 0 {
		exID = w.unsynced[n-1].ID()
	}
	w.ctr.fsyncNs.ObserveEx(uint64(ns), exID)
	w.ctr.syncs.Inc()
	if w.fail(err) {
		w.abortUnsynced()
		return
	}
	// The state machine moves before the marks do: a Sync this fsync
	// releases already sees the writer healthy (or degraded) and the
	// transition journaled.
	w.observeFsync(ns)
	w.noteDurable(w.consRecs)
}

// noteDurable publishes the durable mark after a successful fsync that
// covers the first n records, and completes the traces that waited for
// it. acked follows when a rotation's fsync ran ahead of any commit.
// Flusher-only.
func (w *Writer) noteDurable(n uint64) {
	w.ctr.commitRecords.Observe(n - w.durable.Load())
	w.durable.Store(n)
	if w.acked.Load() < n {
		w.acked.Store(n)
	}
	w.finishUnsynced(false)
}

// observeFsync advances the degraded-ack state machine on one measured
// data-path fsync. Flusher-only.
func (w *Writer) observeFsync(ns int64) {
	bound := int64(w.pol.DegradeFsync)
	if bound <= 0 {
		return
	}
	if w.degraded.Load() {
		if ns <= bound {
			// The probe came back under the bound: the disk healed.
			w.degraded.Store(false)
			w.overBound = 0
			w.jr.Emit(journal.EvWALDegradeExit, journal.SevInfo, w.jrCause, uint64(ns), w.degradedSkip, 0)
			w.degradedSkip = 0
			w.degradedReqs = 0
		}
		return
	}
	if ns <= bound {
		w.overBound = 0
		return
	}
	w.overBound++
	if w.overBound >= degradeEnterAfter {
		w.degraded.Store(true)
		w.degradedReqs = 0
		w.degradedSkip = 0
		w.jr.Emit(journal.EvWALDegradeEnter, journal.SevWarn, w.jrCause, uint64(ns), uint64(bound), 0)
	}
}

// noteWritten routes a trace whose record has just been written out: it
// awaits its fsync in the unsynced set, or finishes here when the policy
// never commits on the data path; a failed log orphans it unpublished.
// Flusher-only.
func (w *Writer) noteWritten(th trace.Handle) {
	if w.err() != nil {
		th.Abort()
		return
	}
	th.Stamp(trace.StWALWrite)
	if w.ackAtWrite {
		th.Finish()
		return
	}
	w.unsynced = append(w.unsynced, th)
}

// finishUnsynced completes every trace awaiting durability: a real
// fsync stamps the fsync stage, a degraded ack flags the trace instead
// (tail sampling keeps it — that IS the interesting trace). Both end
// at the ack stage. Flusher-only.
func (w *Writer) finishUnsynced(degraded bool) {
	for _, th := range w.unsynced {
		if degraded {
			th.Flag(trace.FDegraded)
		} else {
			th.Stamp(trace.StFsync)
		}
		th.Stamp(trace.StAck)
		th.Finish()
	}
	w.unsynced = w.unsynced[:0]
}

// abortUnsynced discards every trace awaiting durability: no ack will
// ever come (failed fsync, shutdown race) — never publish a phantom.
func (w *Writer) abortUnsynced() {
	for _, th := range w.unsynced {
		th.Abort()
	}
	w.unsynced = w.unsynced[:0]
}

// writeFull writes p to f completely, absorbing partial progress
// (io.ErrShortWrite with bytes written, e.g. an injected short-write
// fault or an interrupted write) by retrying the remainder. A
// zero-progress short write fails rather than spinning.
func writeFull(f File, p []byte) error {
	for off := 0; off < len(p); {
		n, err := f.Write(p[off:])
		off += n
		if err == io.ErrShortWrite && n > 0 {
			continue
		}
		if err == nil && n == 0 {
			err = io.ErrShortWrite
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// wrapFS is Policy.WrapFile over the default file system, for the writer
// alone: recovery, images and the meta file never pass through it, and a
// chaos or test disk, itself the decorator, gets none.
type wrapFS struct {
	vfs.FS
	wrap func(*os.File) File
}

func (a wrapFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := a.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return a.wrap(f.(*os.File)), nil
}

func (a wrapFS) SyncDir(dir string) error {
	d, err := a.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close() // only read: nothing for Close to report
	return d.Sync()
}

// rotate finalises the current segment and opens a fresh one whose base
// LSN is the record the appender cut at; everything below it has been
// written. A failure is the log's. Flusher-only.
func (w *Writer) rotate(base uint64) {
	if w.err() != nil {
		return
	}
	rotated := w.f != nil
	var fsyncNs int64
	if rotated {
		// Finalise the outgoing segment with an fsync under EVERY
		// policy (including SyncNone, whose skipped fsyncs are the
		// data-path ones): once closed, the file can never be fsynced
		// by a later Sync(), so skipping here would let Sync advance
		// DurableLSN over records that only the OS holds. It keeps "every
		// non-tail segment is fully intact on stable storage" an
		// invariant recovery and Sync can both lean on.
		t0 := obs.Nanotime()
		span := obs.Start(w.ctr.fsyncNs)
		err := w.f.Sync()
		span.End()
		fsyncNs = obs.Nanotime() - t0
		if w.fail(err) {
			return
		}
		// The finalising fsync makes every record below the cut durable:
		// any trace still awaiting its ack completes here.
		w.noteDurable(base - w.startLSN)
		if w.fail(w.f.Close()) {
			return
		}
		w.ctr.rots.Inc()
	}
	wf, err := w.fs.OpenFile(filepath.Join(w.dir, segName(base)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if w.fail(err) {
		return
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], base)
	err = writeFull(wf, hdr[:])
	if err == nil {
		// The segment's name must outlive a host crash before any record
		// in it is acknowledged.
		err = w.fs.SyncDir(w.dir)
	}
	if w.fail(err) {
		wf.Close()
		return
	}
	w.f = wf
	if rotated {
		// One event per rotation, carrying the finalising fsync's cost:
		// the rotate→fsync pair the timeline wants, without a second
		// ring slot per rotation.
		w.jr.Emit(journal.EvWALRotate, journal.SevInfo, w.jrCause, base, uint64(fsyncNs), 0)
	}
}
