package dta

import (
	"errors"
	"fmt"
	"path/filepath"

	"dta/internal/ha"
	"dta/internal/obs/journal"
	"dta/internal/snapshot"
	"dta/internal/translator"
	"dta/internal/wal"
	"dta/internal/wire"
)

// WALPolicy configures the write-ahead log's sync behaviour and segment
// sizing. See internal/wal for field semantics; ParseWALPolicy parses
// the CLI form ("none", "interval[=duration]", "batch").
type WALPolicy = wal.Policy

// WAL sync modes: never fsync (OS-paced), fsync on an interval, or
// fsync at every ingest batch boundary.
const (
	WALSyncNone     = wal.SyncNone
	WALSyncInterval = wal.SyncInterval
	WALSyncBatch    = wal.SyncBatch
)

// ParseWALPolicy parses a CLI sync-policy spec.
func ParseWALPolicy(s string) (WALPolicy, error) { return wal.ParsePolicy(s) }

// WALStats snapshots a system's log writer counters.
type WALStats = wal.Stats

// WithWAL attaches a write-ahead log to the system: every admitted
// report is appended, in staged form, to a segmented log under dir
// before primitive processing, so a collector crash loses at most the
// tail the sync policy permits. Call it on a fresh (or just-Recovered)
// system, before any ingest; the deployment geometry is recorded next
// to the segments so standalone tools (dtaquery -wal, RecoverSystem)
// can rebuild the stores from the directory alone.
func (s *System) WithWAL(dir string, pol WALPolicy) error {
	if s.wal != nil {
		return errors.New("dta: WAL already attached")
	}
	w, err := wal.CreateScoped(dir, pol, s.obsScope)
	if err != nil {
		return err
	}
	if err := wal.SaveMeta(dir, &wal.Meta{Translator: s.tr.Config()}); err != nil {
		w.Close()
		return err
	}
	s.wal = w
	w.SetJournal(s.walEmitter())
	s.tr.WAL = func(rec *wire.StagedReport, nowNs uint64) error {
		// Hand the in-flight report's trace handle to the WAL: the
		// flusher stamps write/fsync/ack stages and finishes the trace
		// at durable ack (a second reference keeps it live past the
		// translator's Finish).
		_, err := w.Stage(rec, nowNs, s.tr.TraceHandle())
		return err
	}
	s.tr.WALPublish = w.Publish
	return nil
}

// walEmitter binds the flight recorder to this system's WAL component.
func (s *System) walEmitter() journal.Emitter {
	return journal.Emitter{J: s.jr, Comp: journal.CompWAL, Collector: s.collectorID}
}

// WALAttached reports whether a WAL is logging this system.
func (s *System) WALAttached() bool { return s.wal != nil }

// WALStats snapshots the log writer's counters. Unlike Stats it is safe
// beside a running engine: every cell is an atomic.
func (s *System) WALStats() (WALStats, bool) {
	if s.wal == nil {
		return WALStats{}, false
	}
	return s.wal.WStats(), true
}

// SyncWAL forces every logged record onto stable storage, whatever the
// sync policy. It returns at once when an earlier fsync already covers
// the log, and is safe from any goroutine — also beside a running
// engine, whose records it covers up to the moment of the call.
func (s *System) SyncWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// CloseWAL syncs and detaches the log. Reports ingested afterwards are
// not logged.
func (s *System) CloseWAL() error {
	if s.wal == nil {
		return nil
	}
	s.tr.WAL, s.tr.WALPublish = nil, nil
	err := s.wal.Close()
	s.wal = nil
	return err
}

// walCommitBatch marks an ingest batch boundary for the sync policy
// (engine worker dequeue batches, translator flushes): it requests the
// commit and does not wait for it.
func (s *System) walCommitBatch() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.CommitBatch()
}

// walSettle waits until every commit requested so far is acknowledged.
func (s *System) walSettle() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Settle()
}

// replayChunk is how many log records Recover hands the translator at a
// time (the engine's default ChunkFrames).
const replayChunk = 32

// Recover rebuilds this system's state from a WAL directory: the
// checkpoint image (if one was written) is read straight into the stores,
// then the log tail above it replays through the translator pipeline — so
// batcher heads, postcard caches and aggregation state all come back,
// not just store bytes. A torn tail (crash mid-write) is truncated
// away. Returns the last LSN restored (0 = empty log). Call on a fresh
// system built with the same Options the log was written under, before
// WithWAL re-attaches logging.
//
// Recovery is exact over ADMITTED reports: with Options.RateLimit set,
// reports the live run's token bucket shed are still in the log (see
// translator.Translator.WAL) and the replay's bucket paces differently,
// so the restored stores can hold best-effort reports the crashed run
// dropped — never fewer than it acknowledged. Records whose replay
// fails primitive processing (the live run errored identically and
// carried on) are skipped with the same semantics, not fatal.
func (s *System) Recover(dir string) (uint64, error) {
	rec, _, err := s.recover(dir)
	return rec.Last, err
}

// recover is Recover; it also returns what wal.Recover found and the
// cause the recovery's events chain under.
func (s *System) recover(dir string) (rec wal.Recovered, cause uint64, err error) {
	if s.wal != nil {
		return rec, 0, errors.New("dta: Recover must run before WithWAL")
	}
	// The recovery timeline — start, torn-tail truncation, replay extent
	// — is one causal chain, dumped to dir afterwards so it survives the
	// process (dtarecover -events reads it back).
	jr := s.walEmitter()
	cause = jr.NewCause()
	jr.Emit(journal.EvRecoveryStart, journal.SevInfo, cause, 0, 0, 0)
	// Replay goes through the translator's chunk entry, like live ingest,
	// so a restart gets the same overlapped store misses. A chunk closes
	// when it is full or the logged clock moves: the limiter must see
	// every record at its own timestamp.
	chunk := make([]wire.StagedReport, 0, replayChunk)
	var chunkNow uint64
	failed := 0
	flush := func() {
		n, _ := s.tr.ProcessStagedBatch(chunk, wire.ChunkPlan{}, nil, chunkNow)
		failed += n
		chunk = chunk[:0]
	}
	rec, err = wal.Recover(dir, snapshot.View(s.host), s.tr.AppendBatcher(),
		func(lsn, nowNs uint64, r *wire.StagedReport) error {
			if len(chunk) == cap(chunk) || (len(chunk) > 0 && nowNs != chunkNow) {
				flush()
			}
			chunk, chunkNow = append(chunk, *r), nowNs
			return nil
		})
	flush() // also on a log-damage abort: what was read intact is applied
	if rec.TornBytes > 0 {
		jr.Emit(journal.EvTornTail, journal.SevWarn, cause, uint64(rec.TornBytes), 0, 0)
	}
	if err != nil {
		return rec, cause, err
	}
	// End at an epoch boundary, as the crashed run's last Flush would
	// have: what the replay left parked in the translator (Key-Increment
	// aggregates, a partial Append batch, cached postcards) reaches the
	// stores, so the recovered system answers without anyone calling Flush.
	if err := s.flushAt(chunkNow); err != nil {
		return rec, cause, err
	}
	if rec.PassedOver != nil {
		jr.Emit(journal.EvImageFallback, journal.SevWarn, cause, rec.ImageLSN, 0, 0)
	}
	jr.Emit(journal.EvReplayExtent, journal.SevInfo, cause, rec.Last, uint64(rec.Skipped+failed), 0)
	if s.jr != nil {
		// Best-effort post-mortem artifact; recovery itself succeeded.
		_ = s.jr.DumpFile(filepath.Join(dir, journal.DumpFileName))
	}
	return rec, cause, nil
}

// Checkpoint bounds recovery time and log growth: translator state is
// flushed (an epoch boundary, like Flush), the stores are streamed, with
// the current log position, into an image written atomically next to the
// segments — the image before it is kept as a second generation — and the
// segments that neither image needs are reclaimed (see wal.Checkpoint).
// Recovery then loads the newest image that verifies and replays only
// the tail above it. It costs no memory beyond the stores themselves.
// Requires an attached WAL and quiesced producers (drain the engine
// first). Returns the checkpointed LSN (0 = empty log, nothing written).
func (s *System) Checkpoint() (uint64, error) {
	if s.wal == nil {
		return 0, errors.New("dta: no WAL attached")
	}
	if err := s.flushAt(s.Now()); err != nil {
		return 0, err
	}
	// One wait covers the flush's own commit request under any policy.
	if err := s.wal.Sync(); err != nil {
		return 0, err
	}
	lsn := s.wal.LastLSN()
	if lsn == 0 {
		s.ckptCause = 0
		return 0, nil
	}
	// No copy: producers are quiesced, so the image streams straight out
	// of store memory.
	snap := snapshot.View(s.host)
	if b := s.tr.AppendBatcher(); b != nil {
		snap.AppendHeads = b.WrittenCounts(nil)
	}
	snap.WALLSN = lsn
	// Chain under the failure arc that triggered this checkpoint when
	// HACluster.Rebalance threaded one in; standalone checkpoints mint
	// their own chain.
	cause := s.ckptCause
	s.ckptCause = 0
	if _, err := wal.Checkpoint(s.wal.Dir(), snap, s.walEmitter(), cause); err != nil {
		return 0, err
	}
	return lsn, nil
}

// RecoverSystem rebuilds a System from a WAL directory alone: the
// geometry recorded by WithWAL selects the store configuration, then
// Recover replays the checkpoint and log tail. The returned system is
// queryable immediately; call WithWAL to resume logging into the same
// directory.
func RecoverSystem(dir string) (*System, error) {
	m, err := wal.LoadMeta(dir)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("dta: %s holds no WAL metadata", dir)
	}
	sys, err := New(optionsFromTranslator(m.Translator))
	if err != nil {
		return nil, err
	}
	if _, err := sys.Recover(dir); err != nil {
		return nil, err
	}
	return sys, nil
}

// optionsFromTranslator reverses New's Options→configs mapping for
// WAL-metadata recovery.
func optionsFromTranslator(tc translator.Config) Options {
	var o Options
	if c := tc.KeyWrite; c != nil {
		o.KeyWrite = &KeyWriteOptions{Slots: c.Slots, DataSize: c.DataSize, ChecksumBits: c.ChecksumBits}
	}
	if c := tc.KeyIncrement; c != nil {
		o.KeyIncrement = &KeyIncrementOptions{Slots: c.Slots, AggregationRows: tc.KIAggregationRows}
	}
	if c := tc.Postcarding; c != nil {
		o.Postcarding = &PostcardingOptions{
			Chunks: c.Chunks, Hops: c.Hops, Values: c.Values, SlotBits: c.SlotBits,
			CacheRows: tc.PostcardCacheRows, Redundancy: tc.PostcardRedundancy,
		}
	}
	if c := tc.Append; c != nil {
		o.Append = &AppendOptions{Lists: c.Lists, EntriesPerList: c.EntriesPerList, EntrySize: c.EntrySize, Batch: tc.AppendBatch}
	}
	o.RateLimit = tc.RateLimit
	return o
}

// walSubdir names collector i's log directory inside an HA cluster's
// WAL root.
func walSubdir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("collector-%03d", i))
}

// WithWAL attaches a write-ahead log to every collector, each under its
// own subdirectory of dir (collector-000, collector-001, ...), and
// enables log-shipping resync: SetDown records every live peer's log
// position, and the next Rebalance replays the rejoining collector's
// missed Append operations from the peers' logs — exact under
// concurrent producers — instead of index-aligned snapshot suffixes.
// Call before ingest; collectors added later inherit the directory and
// policy.
func (c *HACluster) WithWAL(dir string, pol WALPolicy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.walDir != "" {
		return errors.New("dta: WAL already attached")
	}
	for i, sys := range c.systems {
		if err := sys.WithWAL(walSubdir(dir, i), c.memberWALPolicy(i, pol)); err != nil {
			return err
		}
	}
	c.walDir, c.walPol = dir, pol
	return nil
}

// memberWALPolicy is collector i's copy of the cluster WAL policy: with
// a chaos plane enabled, its segment files open through the collector's
// fault-injection disk (slow fsyncs, sticky errnos, short writes).
func (c *HACluster) memberWALPolicy(i int, pol WALPolicy) WALPolicy {
	if c.chaos != nil {
		pol.WrapFile = c.chaos.Disk(i).WrapFile
	}
	return pol
}

// Recover rebuilds every collector's state from an HA WAL root written
// by a previous cluster's WithWAL (collector i from collector-%03d).
// Call on a fresh cluster built with the same size and Options, before
// WithWAL. Collectors without a log directory are left empty.
//
// Resynced collectors recover in full: Rebalance checkpoints every
// collector it heals, folding resync writes (which bypass the log) into
// that collector's recovery baseline. Read-repair writes between
// checkpoints are NOT logged — after recovery the repaired divergence
// can reappear, and the next query heals it again, exactly as it was
// healed the first time. A collector that has to pass over its newest
// image lacks the resync writes made after the one it fell back to, which
// are in no log: it comes back stale from epoch 0, so the next Rebalance
// replays its peers into it in full, under the recovery's cause.
func (c *HACluster) Recover(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sys := range c.systems {
		sub := walSubdir(dir, i)
		if m, err := wal.LoadMeta(sub); err != nil {
			return fmt.Errorf("dta: recover collector %d: %w", i, err)
		} else if m == nil {
			continue
		}
		rec, cause, err := sys.recover(sub)
		if err != nil {
			return fmt.Errorf("dta: recover collector %d: %w", i, err)
		}
		if rec.PassedOver != nil {
			c.stale[i], c.causeOf[i] = 0, cause
			c.emit(i, journal.EvSetUp, journal.SevWarn, cause, 0, 0, 0)
		}
	}
	return nil
}

// SyncWAL forces every collector's log onto stable storage.
func (c *HACluster) SyncWAL() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sys := range c.systems {
		if err := sys.SyncWAL(); err != nil {
			return err
		}
	}
	return nil
}

// appendOpKey identifies one logged Append operation for the
// multiset-diff between a peer's log and the target's own.
type appendOpKey struct {
	list uint32
	data string
}

// appendExclusion is the multiset of Append operations the target's own
// log proves it already holds: everything it logged above its SetDown
// self-mark — in-flight ops applied while flagged down, and the whole
// post-restore fan-out. Subtracting it from the peers' replay streams
// makes log-shipping resync duplicate-free as well as loss-free: an
// entry is replayed exactly (peer count − target count) times, the
// number of copies the target actually missed.
func (c *HACluster) appendExclusion(id int, selfMark uint64) (map[appendOpKey]int, error) {
	w := c.systems[id].wal
	if w == nil {
		return nil, nil
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	excl := make(map[appendOpKey]int)
	_, err := wal.Replay(w.Dir(), selfMark+1, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
		if rec.Primitive() == wire.PrimAppend {
			excl[appendOpKey{rec.AppendArgs(), string(rec.Payload())}]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return excl, nil
}

// appendOpsFrom builds the log-shipping stream Rebalance hands to
// ha.Resync: peer's logged Append operations above the target's
// watermark, filtered to the lists the target owns AND for which peer
// is the target's designated source — the first live owner-peer in ring
// order — so each missed entry is replayed exactly once even when
// several live peers hold the same list. Operations present in the
// exclusion multiset (the target's own post-mark log) are consumed from
// it instead of yielded: the target already holds them.
func (c *HACluster) appendOpsFrom(target, peer int, fromLSN uint64, excl map[appendOpKey]int) ha.AppendOps {
	dir := c.systems[peer].wal.Dir()
	decided := make(map[uint32]bool)
	return func(yield func(list uint32, data []byte) error) error {
		_, err := wal.Replay(dir, fromLSN+1, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
			if rec.Primitive() != wire.PrimAppend {
				return nil
			}
			list := rec.AppendArgs()
			take, ok := decided[list]
			if !ok {
				take = c.designatedAppendPeer(target, list) == peer
				decided[list] = take
			}
			if !take {
				return nil
			}
			key := appendOpKey{list, string(rec.Payload())}
			if excl[key] > 0 {
				excl[key]--
				return nil
			}
			return yield(list, rec.Payload())
		})
		return err
	}
}

// designatedAppendPeer picks the one live peer whose log serves list
// for target (-1: target does not own the list, or no live peer does).
func (c *HACluster) designatedAppendPeer(target int, list uint32) int {
	var ob [ha.MaxReplicas]int
	owners := c.ring.OwnersOfList(list, c.r, ob[:0])
	targetOwns := false
	for _, o := range owners {
		if o == target {
			targetOwns = true
			break
		}
	}
	if !targetOwns {
		return -1
	}
	for _, o := range owners {
		if o == target || c.health.IsDown(o) {
			continue
		}
		// Route around peer partitions: a cut peer's log is unreadable
		// by contract. (Rebalance already defers wholly-blocked targets;
		// this keeps the designation itself partition-aware.)
		if c.chaos.PeersCut(target, o) {
			continue
		}
		return o
	}
	return -1
}

// logResyncReady reports whether log-shipping can serve target id's
// Append resync: a watermark was recorded (SetDown/AddCollector with a
// WAL attached) and every live peer's log still retains its suffix
// above the watermark (a checkpoint may have reclaimed it). Peers' logs
// are flushed to disk as a side effect so the replay reads everything.
func (c *HACluster) logResyncReady(id int, marks map[int]uint64, peers []int) bool {
	for _, p := range peers {
		if p == id {
			continue
		}
		w := c.systems[p].wal
		if w == nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		first, _, err := wal.Bounds(w.Dir())
		if err != nil {
			return false
		}
		if first > marks[p]+1 {
			return false // checkpoint reclaimed part of the needed suffix
		}
	}
	return true
}
