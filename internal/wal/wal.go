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
// but the frame is aggressively compacted — the log is on the ingest
// hot path, and its cost is dominated by bytes written: the LSN is
// implicit (records are contiguous, so a record's LSN is the segment
// base plus its index), the ingest timestamp is a varint delta from
// the previous record, and all-zero 8-byte groups of the fixed image
// (most of it, for any single primitive) are elided via the bitmap. A
// Key-Write record with a 4-byte value costs ~36 bytes instead of the
// naive ~68. The CRC covers everything after itself, so a torn tail, a
// truncated segment or a bit flip is detected at the first damaged
// record and recovery stops exactly there. A checkpoint (snapshot
// image + LSN, see Checkpoint) bounds replay and lets segments wholly
// below the checkpoint LSN be reclaimed.
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
//	durable ≤ acked ≤ written ≤ consumed ≤ appended,   wanted ≤ appended
//
// and one commit loop in the flusher goroutine: a batch boundary
// (CommitBatch) only raises the wanted mark to the appended one; the
// flusher, whenever wanted is ahead of acked, writes out and issues ONE
// fsync covering everything it has consumed, publishes the marks and
// wakes the waiters. Every durability wait is "until acked ≥ the mark I
// saw", which returns at once when an earlier fsync already covers it
// and lets any number of waiters on any goroutine share one fsync. The
// three sync policies are parameter points of that loop: batch raises
// the wanted mark at batch boundaries, interval has the flusher commit
// un-durable records no later than Policy.Interval after its last commit
// (so at most one data-path fsync per Interval), none leaves it to
// explicit Sync calls.
//
// What is appended but not yet durable is bounded by the ring: the
// flusher consumes nothing while it sits in an fsync, so at most
// writerRingEntries records can be appended behind a commit in flight
// before Append blocks.
package wal

import (
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
	"dta/internal/wire"
)

// SyncMode selects when the writer fsyncs, trading ingest cost for
// recovery-point objective (RPO).
type SyncMode int

const (
	// SyncNone never fsyncs on the data path: the OS flushes when it
	// pleases. Cheapest; a host crash can lose everything since the last
	// Sync/Checkpoint/Close. A process crash alone loses at most the
	// writer's buffered tail (the OS still holds flushed pages).
	SyncNone SyncMode = iota
	// SyncInterval has the flusher commit un-durable records no later
	// than Policy.Interval after its last commit: at most one data-path
	// fsync per Interval, and no record waits longer than that for its
	// own, whether or not more records arrive. The age runs from the last
	// commit, not from the record's arrival, so the first record after an
	// idle gap longer than Interval is fsynced at once.
	SyncInterval
	// SyncBatch requests a commit at every ingest batch boundary (each
	// engine worker dequeue batch; every Flush on the synchronous path).
	// The request does not wait: boundaries that pass while an fsync is
	// in flight share the next one, and a Drain / Flush returns only once
	// the commits posted before it are acknowledged. Strongest.
	SyncBatch
)

func (m SyncMode) String() string {
	switch m {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncBatch:
		return "batch"
	default:
		return fmt.Sprintf("syncmode(%d)", int(m))
	}
}

// File is the writer's view of one segment file: the subset of *os.File
// the flusher uses. Fault-injection layers (internal/chaos) wrap the
// real file behind it via Policy.WrapFile; production runs pay nothing
// (the interface call on a raw *os.File devirtualises next to the
// syscall it fronts, and every call is already off the ingest path).
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

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
	// WrapFile, when set, wraps every segment file the flusher opens —
	// the fault-injection hook (slow or dead disks, short writes). nil
	// uses the file directly.
	WrapFile func(*os.File) File
	// DegradeFsync, when > 0, bounds tolerated fsync latency: once
	// degradeEnterAfter consecutive data-path fsyncs exceed it, the
	// writer enters degraded-ack mode — commits are acknowledged at the
	// OS-write boundary without fsyncing, counted in
	// Stats.DegradedAcks, and DurableLSN stops advancing — instead of
	// stalling ingest behind a sick disk. Every degradeProbeEvery-th
	// commit still fsyncs as a probe; a probe back under the
	// bound exits degraded mode. Both transitions are journaled
	// (EvWALDegradeEnter/Exit). 0 disables degradation: every commit
	// fsyncs, however slow the disk.
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
	// stagedGroups is the staged image's fixed block in 8-byte groups.
	stagedGroups = wire.StagedFixedLen / 8
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
// amd64/arm64, so framing costs ~1ns per record).
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
	Appends   uint64
	Syncs     uint64
	Rotations uint64
	// Bytes counts log bytes appended since Open (excluding headers of
	// pre-existing segments).
	Bytes uint64
	// RingHighWater is the deepest SPSC ring occupancy observed — how
	// close the flusher has come to stalling ingest. At the ring size
	// (8192) Append blocks.
	RingHighWater uint64
	// RingStalls counts Appends that found the ring full and had to
	// wait for the flusher — the slow-disk backpressure signal.
	RingStalls uint64
	// NudgesDropped counts flusher wakeups coalesced into an already-
	// pending nudge. High values are normal under load (the flusher was
	// awake anyway); they matter when correlated with ring stalls on a
	// slow disk.
	NudgesDropped uint64
	// DegradedAcks counts commits acknowledged at the OS-write
	// boundary without an fsync while the writer was in degraded-ack
	// mode (Policy.DegradeFsync).
	DegradedAcks uint64
	// Degraded reports whether the writer is currently in degraded-ack
	// mode.
	Degraded bool
	// FailedErrno is the errno of the flusher's sticky failure (0 =
	// healthy, -1 = failed with a non-errno error).
	FailedErrno int64
}

// walCounters is the live metric storage behind Stats. Appender-side
// cells (appends, stalls, HWM) are single-writer; flusher-side cells
// (syncs, rotations, bytes) are single-writer on the flusher goroutine;
// nudgesDropped is bumped by whichever goroutine nudges. All are
// atomics, so WStats and the exposition read them concurrently.
type walCounters struct {
	appends       *obs.Counter
	syncs         *obs.Counter
	rots          *obs.Counter
	bytes         *obs.Counter
	ringStalls    *obs.Counter
	nudgesDropped *obs.Counter
	degradedAcks  *obs.Counter
	coalesced     *obs.Counter
	ringHWM       *obs.Gauge
	flushNs       *obs.Histogram // write-behind buffer drain to the OS
	fsyncNs       *obs.Histogram
	commitWaitNs  *obs.Histogram // blocked durability waits
	commitRecords *obs.Histogram // records newly covered per fsync
}

func newWALCounters(sc *obs.Scope) walCounters {
	return walCounters{
		appends:       sc.Counter("dta_wal_appends_total", "Records accepted into the WAL ring."),
		syncs:         sc.Counter("dta_wal_syncs_total", "Segment fsyncs."),
		rots:          sc.Counter("dta_wal_rotations_total", "Segment rotations."),
		bytes:         sc.Counter("dta_wal_bytes_total", "Log bytes appended."),
		ringStalls:    sc.Counter("dta_wal_ring_stalls_total", "Appends that found the SPSC ring full and blocked on the flusher."),
		nudgesDropped: sc.Counter("dta_wal_nudges_dropped_total", "Flusher wakeups coalesced into an already-pending nudge."),
		degradedAcks:  sc.Counter("dta_wal_degraded_acks_total", "Commits acknowledged without fsync in degraded-ack mode."),
		coalesced:     sc.Counter("dta_wal_commits_coalesced_total", "Sync calls that needed no fsync of their own: already covered, or joined a commit another caller had requested."),
		ringHWM:       sc.Gauge("dta_wal_ring_high_water", "Deepest SPSC ring occupancy observed (ring size 8192)."),
		flushNs:       sc.Histogram("dta_wal_flush_ns", "Nanoseconds per write-behind buffer drain to the OS."),
		fsyncNs:       sc.Histogram("dta_wal_fsync_ns", "Nanoseconds per segment fsync."),
		commitWaitNs:  sc.Histogram("dta_wal_commit_wait_ns", "Nanoseconds a Drain / Flush / SyncWAL spent blocked until its records were acknowledged."),
		commitRecords: sc.Histogram("dta_wal_commit_records", "Records newly made durable per fsync (the group-commit size)."),
	}
}

// Writer appends records to a segmented log. Appending is single-
// writer: the owning translator's ingest context (one engine shard
// worker, or the synchronous caller) calls Append and CommitBatch.
// Everything that only reads or waits on the marks — Sync, Settle,
// Flush, LastLSN, DurableLSN, WStats — is safe from any goroutine, so a
// control plane can force or await durability beside a running worker.
//
// The ingest-path contract is "one bounded copy, nothing else": Append
// places a copy of the staged record into a lock-free single-producer /
// single-consumer ring and returns. A background flusher goroutine
// consumes the ring and does ALL the heavy lifting — frame encoding,
// CRC, buffered OS writes, segment rotation and fsyncs — so none of it
// rides the ingest hot path (an engine shard worker's per-record cost
// lands 1:1 on end-to-end throughput; a syscall there stalls the worker
// AND every producer behind its bounded queue). A full ring blocks
// Append — the natural backpressure when the disk cannot keep up with
// ingest.
type Writer struct {
	dir string
	pol Policy
	// The sync policy as the commit loop sees it (see the package doc).
	commitOnBatch bool          // batch: CommitBatch raises want
	maxAge        time.Duration // interval: the flusher commits un-durable records this long after its last commit; 0 = never by age
	ackAtWrite    bool          // none: no data-path commit, so a trace's ack is its OS write

	// SPSC ring: Append (producer) copies records in and bumps head;
	// the flusher (consumer) encodes them out and bumps tail.
	ring []ringEntry
	head atomic.Uint64 // records ever appended
	tail atomic.Uint64 // records ever consumed

	// Commit marks, counted in records since Create like head and tail;
	// each only ever grows. want is raised by whoever asks for a commit,
	// the other three by the flusher alone.
	want    atomic.Uint64 // a commit has been requested up to here
	written atomic.Uint64 // handed to the OS
	acked   atomic.Uint64 // covered by a completed commit: an fsync or a degraded ack
	durable atomic.Uint64 // covered by a completed fsync
	// A Sync over records a degraded ack already acknowledged is still a
	// request (it is counted and paces the probe), but want cannot express
	// it — it is not behind. Such a Sync takes a ticket from reaskWant and
	// waits for reaskDone, which the flusher raises to the tickets it had
	// seen when the commit serving them began.
	reaskWant atomic.Uint64
	reaskDone atomic.Uint64

	startLSN uint64 // LSN of the first record this Writer appends

	// Waiters on the marks park on cond; the flusher broadcasts after a
	// commit, after a write-out, on its first failure and when it exits.
	mu     sync.Mutex
	cond   sync.Cond
	exited bool // flusher gone; guarded by mu

	// wake nudges an idle flusher (sent only on empty→non-empty and by
	// commit requests); space signals a blocked appender (sent only on
	// full→not-full); quit asks the flusher to finish, done closes when
	// it has.
	wake  chan struct{}
	space chan struct{}
	quit  chan struct{}
	done  chan struct{}

	flushErr atomic.Pointer[error]
	// failedErrno mirrors the sticky failure's errno for the health
	// exposition (0 = healthy, -1 = non-errno failure).
	failedErrno atomic.Int64
	closed      atomic.Bool

	// degraded flags degraded-ack mode (Policy.DegradeFsync): set and
	// cleared by the flusher, read by Sync, Stats and the exposition.
	degraded atomic.Bool

	ctr walCounters

	// jr publishes segment-lifecycle events (rotations, flusher
	// failure) to the flight recorder; jrCause chains them so the log's
	// whole segment history renders as one timeline. Set via SetJournal
	// before ingest starts; the zero value is a no-op.
	jr      journal.Emitter
	jrCause uint64

	// Flusher-owned state (no appender access after Create).
	f        File
	buf      []byte // write-behind buffer
	segBytes int64
	prevNow  uint64 // previous record's timestamp (delta encoding)
	lastSync int64  // obs.Nanotime of the last commit (age bound)
	scratch  [MaxRecordLen]byte
	// Trace handles in flight through the flusher: pendWrite holds
	// encoded-but-buffered records' handles, unsynced holds handles
	// whose bytes reached the OS but not yet stable storage. Both hold
	// only valid handles, so their length is bounded by the tracer's
	// in-flight pool, not the ring. Flusher-owned.
	pendWrite []trace.Handle
	unsynced  []trace.Handle
	// Degraded-ack bookkeeping, flusher-owned: consecutive over-bound
	// fsyncs (entry trigger), commits seen while degraded (probe pacing)
	// and acks skipped since entry (Exit event payload).
	overBound    int
	degradedReqs int
	degradedSkip uint64
}

// ringEntry is one in-flight record awaiting encoding.
type ringEntry struct {
	rec   wire.StagedReport
	nowNs uint64
	trc   trace.Handle // data-plane trace (invalid when untraced)
}

const (
	// writerRingEntries bounds in-flight (unencoded) records; at ~120 B
	// each the ring is ~1 MiB per collector.
	writerRingEntries = 8192
	// writerBufBytes sizes the flusher's write-behind buffer (one OS
	// write per ~2k records at Key-Write record sizes).
	writerBufBytes = 64 << 10

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
	return CreateScoped(dir, pol, nil)
}

// CreateScoped is Create with the writer's metrics (dta_wal_*)
// registered under the given obs scope. A nil scope keeps the counters
// behind WStats live but unexposed, and disables the flush/fsync
// latency histograms.
func CreateScoped(dir string, pol Policy, sc *obs.Scope) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := RepairTail(dir); err != nil {
		return nil, err
	}
	bases, err := segBases(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		dir:      dir,
		pol:      pol.withDefaults(),
		ring:     make([]ringEntry, writerRingEntries),
		lastSync: obs.Nanotime(),
		wake:     make(chan struct{}, 1),
		space:    make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		buf:      make([]byte, 0, writerBufBytes),
		ctr:      newWALCounters(sc),
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
	sc.GaugeFunc("dta_wal_last_lsn", "Highest LSN appended.",
		func() float64 { return float64(w.LastLSN()) })
	sc.GaugeFunc("dta_wal_durable_lsn", "Highest LSN guaranteed on stable storage.",
		func() float64 { return float64(w.DurableLSN()) })
	sc.GaugeFunc("dta_wal_ring_occupancy", "Records currently buffered in the SPSC ring.",
		func() float64 { return float64(w.head.Load() - w.tail.Load()) })
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
	if len(bases) > 0 {
		last := bases[len(bases)-1]
		info, err := scanSegment(filepath.Join(dir, segName(last)), last)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f = w.wrap(f)
		if info.Records > 0 {
			// Force a fresh segment for the first new record: timestamp
			// deltas are per-segment and the old tail's last timestamp
			// is not tracked across runs, so appending mid-segment would
			// decode the first new record's time wrong. The open handle
			// just lets rotate finalise the old tail normally.
			next = info.Last + 1
			w.segBytes = w.pol.SegmentBytes
		} else {
			// Header-only tail (a crash right after rotation): continue
			// inside it — it holds no timestamps to clash with.
			next = last
			w.segBytes = info.Bytes
		}
	} else if ck, err := LoadCheckpoint(dir); err != nil {
		return nil, err
	} else if ck != nil {
		// All segments were reclaimed by the checkpoint: continue the
		// LSN sequence after it instead of restarting at 1.
		next = ck.WALLSN + 1
	}
	w.startLSN = next
	go w.flusher()
	return w, nil
}

// SetJournal threads the flight recorder into the writer. Call it
// right after Create, before the first Append: the flusher goroutine
// only touches the emitter when processing records, and the first
// record's publication happens-after this store.
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

// Policy returns the writer's sync policy.
func (w *Writer) Policy() Policy { return w.pol }

// LastLSN returns the highest LSN appended (0 = nothing logged). Safe
// to call concurrently with Append.
func (w *Writer) LastLSN() uint64 { return w.startLSN + w.head.Load() - 1 }

// DurableLSN returns the highest LSN guaranteed on stable storage. Safe
// to call concurrently with Append.
func (w *Writer) DurableLSN() uint64 { return w.startLSN + w.durable.Load() - 1 }

// WStats snapshots the writer's counters. Safe to call concurrently
// with Append and the flusher (the cells are atomics).
func (w *Writer) WStats() Stats {
	return Stats{
		LastLSN:       w.LastLSN(),
		DurableLSN:    w.DurableLSN(),
		Appends:       w.ctr.appends.Load(),
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

// Append logs one staged report with its ingest timestamp and returns
// the assigned LSN. The record is copied into the flusher ring — one
// bounded memmove, no encoding, no CRC, no syscalls, no clock read — so
// the ingest path pays tens of nanoseconds regardless of sync policy; a
// full ring (the flusher lagging by writerRingEntries records) blocks
// until space frees, which is the intended backpressure.
func (w *Writer) Append(rec *wire.StagedReport, nowNs uint64) (uint64, error) {
	return w.AppendTraced(rec, nowNs, trace.Handle{})
}

// AppendTraced is Append carrying the report's data-plane trace: the
// WAL takes shared trace ownership (the flusher finishes it at the
// durable-ack boundary), stamps the ring-entry stage, and flags the
// trace on a ring-full backpressure stall. The invalid handle reduces
// to plain Append.
func (w *Writer) AppendTraced(rec *wire.StagedReport, nowNs uint64, th trace.Handle) (uint64, error) {
	if err := w.err(); err != nil {
		return 0, err
	}
	if w.closed.Load() {
		return 0, fmt.Errorf("wal: writer closed")
	}
	h := w.head.Load()
	if h-w.tail.Load() == uint64(len(w.ring)) {
		// Full ring: the flusher is lagging a whole ring behind — the
		// slow-disk stall the ROADMAP's chaos scenarios suspect. Count
		// it (once per stalled append), then wait.
		w.ctr.ringStalls.Inc()
		th.Flag(trace.FStall)
		for h-w.tail.Load() == uint64(len(w.ring)) {
			w.nudge()
			select {
			case <-w.space:
			case <-w.done:
				return 0, w.err()
			}
		}
	}
	e := &w.ring[h&uint64(len(w.ring)-1)]
	e.rec = *rec
	e.nowNs = nowNs
	// e.trc is assigned unconditionally: a recycled ring slot must never
	// carry a previous lap's handle.
	if th.OwnWAL() {
		th.Stamp(trace.StWALRing)
		e.trc = th
	} else {
		e.trc = trace.Handle{}
	}
	w.head.Store(h + 1)
	w.ctr.appends.Inc()
	// Wake the flusher if it may have gone (or be going) idle: reading
	// tail AFTER publishing head closes the sleep race — a flusher that
	// decided to sleep had consumed everything before this record, so
	// its tail advance is visible here and the nudge fires.
	tail := w.tail.Load()
	if tail >= h {
		w.nudge()
	}
	// The tail load above doubles as the occupancy sample for the ring
	// high-water mark (the common case is one relaxed load, no write).
	w.ctr.ringHWM.SetMax(int64(h + 1 - tail))
	return w.startLSN + h, nil
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
// them (the log-shipping resync path reads peers' logs this way). It
// requests nothing — the flusher writes out whenever its buffer fills
// or the ring runs empty, so the wait is at most one buffer long.
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
// degraded-ack mode (Policy.DegradeFsync) the commit acknowledges at
// the OS-write boundary, counts the skipped fsync in Stats.DegradedAcks,
// and DurableLSN holds still; a Sync with nothing new to acknowledge
// there still waits for a commit of its own, so every call is counted and
// every degradeProbeEvery-th probes (calls waiting at the same time share
// one).
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

// CommitBatch marks an ingest batch boundary. Under SyncBatch it
// requests a commit of everything appended so far and returns without
// waiting for it (Settle waits); under the other policies it requests
// nothing. The error is the log's sticky failure, if any. The engine's
// shard workers call it after every dequeue batch; the synchronous path
// calls it from Flush.
func (w *Writer) CommitBatch() error {
	if w.commitOnBatch {
		w.post(w.head.Load())
	}
	return w.err()
}

// Settle blocks until every commit requested so far (CommitBatch, Sync)
// has been acknowledged. It requests none itself, so under SyncNone and
// SyncInterval it has nothing to wait for.
func (w *Writer) Settle() error { return w.awaitCommit(&w.acked, w.want.Load()) }

// Close makes the log durable — a real fsync even in degraded-ack mode —
// closes it and stops the flusher. The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed.Swap(true) {
		return nil
	}
	close(w.quit)
	<-w.done
	return w.err()
}

// flusher is the background half of the writer: it consumes the ring,
// frames records (varint timestamp delta + zero-elided groups + CRC),
// batches them through the write-behind buffer, rotates segments and
// runs the commit loop. All file state is flusher-owned after Create.
func (w *Writer) flusher() {
	defer close(w.done)
	defer func() {
		if w.f != nil {
			// Leave a fully durable log behind, however sick the disk.
			w.fail(w.writeOut())
			if w.err() == nil && w.durable.Load() < w.tail.Load() {
				w.syncPoint(true)
			}
			w.f.Close()
		}
		// Any trace still in flight here never reached its durable ack
		// (failure or shutdown race): discard, never publish a phantom.
		for _, th := range w.pendWrite {
			th.Abort()
		}
		for _, th := range w.unsynced {
			th.Abort()
		}
		w.pendWrite, w.unsynced = nil, nil
		w.mu.Lock()
		w.exited = true
		w.mu.Unlock()
		w.cond.Broadcast()
	}()
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for {
		// want is sampled before head: a request never runs ahead of the
		// records it covers, so after this pass tail ≥ want and one
		// commit serves it whole.
		want := w.want.Load()
		reask := w.reaskWant.Load()
		// Drain whatever is in the ring. Once the log has failed,
		// records are consumed and discarded — the appender sees the
		// error on its next call; blocking it forever would wedge the
		// whole ingest pipeline behind a dead disk.
		t := w.tail.Load()
		h := w.head.Load()
		for i := t; i < h; i++ {
			e := &w.ring[i&uint64(len(w.ring)-1)]
			if w.err() == nil {
				w.fail(w.encode(e))
			}
			if e.trc.Valid() {
				if w.err() == nil {
					w.pendWrite = append(w.pendWrite, e.trc)
				} else {
					// Failed log: the record was consumed and discarded,
					// so no durable ack will ever come.
					e.trc.Abort()
				}
				e.trc = trace.Handle{}
			}
			w.tail.Store(i + 1)
			// Unconditional (non-blocking, coalescing) space signal: an
			// appender may have seen the ring full against a head far
			// past our snapshot, so no local occupancy check can decide
			// whether one is waiting.
			select {
			case w.space <- struct{}{}:
			default:
			}
		}
		// The commit loop. A commit is due when someone wants records
		// acknowledged that are not (batch boundaries, Sync), when Sync
		// re-asks over a degraded ack, or when un-acknowledged records
		// exist and the last commit is maxAge old (interval).
		acked := w.acked.Load()
		due := want > acked || reask > w.reaskDone.Load()
		sleep := time.Second
		if w.maxAge > 0 && h > acked {
			sleep = w.maxAge - time.Duration(obs.Nanotime()-w.lastSync)
			due = due || sleep <= 0
		}
		if due {
			w.commit(reask)
			continue
		}
		if w.tail.Load() == w.head.Load() {
			// Idle: push the buffer to the OS (bounding staleness for
			// log-shipping readers), then sleep until nudged — or until
			// the last commit is maxAge old with records behind it. The
			// appender's
			// publish-then-check-tail ordering guarantees a nudge for
			// the record that races this sleep decision; the long timer
			// is a belt-and-suspenders bound, not a poll.
			w.fail(w.writeOut())
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(sleep)
			select {
			case <-w.wake:
			case <-idle.C:
			case <-w.quit:
				if w.tail.Load() == w.head.Load() {
					return
				}
			}
		}
	}
}

// commit serves every durability request outstanding with one fsync
// over everything consumed so far (a counted skip in degraded-ack
// mode), then publishes the acked mark — and reaskDone, up to the re-ask
// tickets seen before it began — and wakes the waiters. On a failed log
// it only releases them: await hands each the sticky error.
func (w *Writer) commit(reask uint64) {
	n := w.tail.Load()
	w.fail(w.writeOut())
	if w.err() == nil && w.f != nil {
		w.syncPoint(false)
	}
	w.lastSync = obs.Nanotime()
	w.acked.Store(n)
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

// wrap applies the policy's fault-injection hook to a freshly opened
// segment file.
func (w *Writer) wrap(f *os.File) File {
	if w.pol.WrapFile != nil {
		return w.pol.WrapFile(f)
	}
	return f
}

// syncPoint is the fsync of one commit: measured in the healthy case, a
// counted skip in degraded-ack mode (force — the flusher's exit, i.e.
// Close — always fsyncs). The caller has written the buffer out, so the
// fsync covers every record consumed. Flusher-only.
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
	span := obs.Start(w.ctr.fsyncNs)
	err := w.f.Sync()
	// The newest trace covered by this fsync becomes the fsync
	// histogram's bucket exemplar.
	var exID uint64
	if n := len(w.unsynced); n > 0 {
		exID = w.unsynced[n-1].ID()
	}
	span.EndExemplar(exID)
	ns := obs.Nanotime() - t0
	w.ctr.syncs.Inc()
	if w.fail(err) {
		w.abortUnsynced()
		return
	}
	// The state machine moves before the marks do: a Sync this fsync
	// releases already sees the writer healthy (or degraded) and the
	// transition journaled.
	w.observeFsync(ns)
	w.noteDurable()
}

// noteDurable publishes the durable mark after a successful fsync of
// the open segment — every record consumed so far is on stable storage
// — and completes the traces that waited for it. acked follows when a
// rotation's fsync ran ahead of any commit. Flusher-only.
func (w *Writer) noteDurable() {
	n := w.tail.Load()
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

// encode frames one ring entry into the write-behind buffer, rotating
// segments as needed.
func (w *Writer) encode(e *ringEntry) error {
	if w.f == nil || w.segBytes >= w.pol.SegmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	b := w.scratch[:]
	off := recordHeaderLen
	off += binary.PutVarint(b[off:], int64(e.nowNs-w.prevNow))
	n, bitmap := e.rec.EncodeGroupsTo(b[off:])
	total := off + n
	b[4] = byte(total - recordHeaderLen)
	b[5] = bitmap
	binary.BigEndian.PutUint32(b[0:4], crc32.Checksum(b[4:total], castagnoli))
	w.prevNow = e.nowNs
	if len(w.buf)+total > cap(w.buf) {
		if err := w.writeOut(); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, b[:total]...)
	w.segBytes += int64(total)
	w.ctr.bytes.Add(uint64(total))
	return nil
}

// writeOut drains the write-behind buffer to the OS.
func (w *Writer) writeOut() error {
	if len(w.buf) == 0 || w.f == nil {
		return nil
	}
	span := obs.Start(w.ctr.flushNs)
	err := writeFull(w.f, w.buf)
	span.End()
	w.buf = w.buf[:0]
	w.noteWritten(err == nil)
	if err == nil {
		// Every consumed record was in the buffer: encode writes out
		// before it adds the record that will not fit.
		w.written.Store(w.tail.Load())
		w.wakeWaiters()
	}
	return err
}

// noteWritten routes the pending trace handles after a write-behind
// drain: written records advance to the unsynced set awaiting their
// fsync (or finish here when the policy never commits on the data
// path); a failed write orphans them unpublished. Flusher-only.
func (w *Writer) noteWritten(ok bool) {
	if len(w.pendWrite) == 0 {
		return
	}
	for _, th := range w.pendWrite {
		if !ok {
			th.Abort()
			continue
		}
		th.Stamp(trace.StWALWrite)
		if w.ackAtWrite {
			th.Finish()
			continue
		}
		w.unsynced = append(w.unsynced, th)
	}
	w.pendWrite = w.pendWrite[:0]
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

// abortUnsynced discards every trace awaiting durability (the fsync
// failed: no ack will ever come). Flusher-only.
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

// rotate finalises the current segment and opens a fresh one whose base
// LSN is the next record's. Flusher-only.
func (w *Writer) rotate() error {
	rotated := w.f != nil
	var fsyncNs int64
	if w.f != nil {
		if err := w.writeOut(); err != nil {
			return err
		}
		// Finalise the outgoing segment with an fsync under EVERY
		// policy (including SyncNone, whose skipped fsyncs are the
		// data-path ones): once closed, the file can never be fsynced
		// by a later Sync(), so skipping here would let Sync advance
		// DurableLSN over records that only the OS holds — a host crash
		// would then lose acknowledged records mid-log. One fsync per
		// SegmentBytes is far off the hot path, and it keeps "every
		// non-tail segment is fully intact on stable storage" an
		// invariant recovery and Sync can both lean on.
		t0 := obs.Nanotime()
		span := obs.Start(w.ctr.fsyncNs)
		err := w.f.Sync()
		span.End()
		fsyncNs = obs.Nanotime() - t0
		if err != nil {
			return err
		}
		// The finalising fsync makes every written record durable: any
		// trace still awaiting its ack completes here.
		w.noteDurable()
		if err := w.f.Close(); err != nil {
			return err
		}
		w.ctr.rots.Inc()
	}
	base := w.startLSN + w.tail.Load()
	f, err := os.OpenFile(filepath.Join(w.dir, segName(base)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	wf := w.wrap(f)
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], base)
	if err := writeFull(wf, hdr[:]); err != nil {
		wf.Close()
		return err
	}
	w.f = wf
	w.segBytes = segHeaderLen
	w.prevNow = 0 // timestamp deltas restart per segment
	if rotated {
		// One event per rotation, carrying the finalising fsync's cost:
		// the rotate→fsync pair the timeline wants, without a second
		// ring slot per rotation.
		w.jr.Emit(journal.EvWALRotate, journal.SevInfo, w.jrCause, base, uint64(fsyncNs), 0)
	}
	return nil
}
