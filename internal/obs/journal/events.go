package journal

import (
	"fmt"
	"syscall"
	"time"
)

// Severity grades an event's operational weight.
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("sev(%d)", uint8(s))
}

// Component identifies the publishing subsystem.
type Component uint8

const (
	CompHA Component = iota
	CompWAL
	CompEngine
	CompTranslator
)

func (c Component) String() string {
	switch c {
	case CompHA:
		return "ha"
	case CompWAL:
		return "wal"
	case CompEngine:
		return "engine"
	case CompTranslator:
		return "translator"
	}
	return fmt.Sprintf("comp(%d)", uint8(c))
}

// Type enumerates what happened. Events are fixed-size, so the
// per-type payload rides in Arg1..Arg3 — Detail documents each layout
// by rendering it.
type Type uint8

const (
	// HA control plane. One SetDown mints a cause shared by its fence,
	// epoch bump, and the eventual SetUp/Resync/Checkpoint chain.
	EvSetDown Type = iota + 1 // arg1 = epoch after the bump
	EvSetUp                   // arg1 = epoch after the bump
	// EvWALFence: the collector's peers' log marks, read before its flag
	// flips. No lock holds writers off meanwhile: every replicated Append
	// carries its recipient set, the collectors its fan-out reached, and
	// a record above the marks is replayed into the collector only when
	// that set leaves it out.
	EvWALFence     // arg1 = peer log marks recorded
	EvEpochBump    // arg1 = new epoch
	EvMemberAdd    // arg1 = new cluster size, arg2 = epoch
	EvMemberRemove // arg1 = new cluster size, arg2 = epoch
	_              // retired: capacity-weight change

	// Rebalance / resync.
	EvRebalanceStart // arg1 = stale targets
	EvRebalanceEnd   // arg1 = targets resynced, arg2 = duration ns
	EvResyncStart    // arg1 = staleness epoch, arg2 = peers
	EvResyncEnd      // arg1 = slots replayed, arg2 = slots skipped, arg3 = duration ns
	EvResyncFail     // arg1 = staleness epoch
	EvCheckpoint     // arg1 = checkpoint LSN

	// WAL lifecycle.
	EvWALRotate   // arg1 = first LSN of the new segment, arg2 = finalising fsync ns
	EvWALTruncate // arg1 = truncation LSN, arg2 = segments reclaimed
	EvWALError    // flusher entered sticky failure

	// Crash recovery.
	EvRecoveryStart // (no args)
	EvTornTail      // arg1 = torn bytes truncated
	EvReplayExtent  // arg1 = last LSN replayed, arg2 = records skipped (below checkpoint)

	// Read repair (rate-gated; one event represents a burst).
	EvReadRepair // arg1 = replicas repaired this event, arg2 = cumulative repairs

	// Engine queue-stall episodes (Block policy backpressure).
	EvStallStart // arg1 = shard queue capacity
	EvStallEnd   // arg1 = episode duration ns

	// Translator data-plane incidents (rate-gated).
	EvRateShed   // arg1 = cumulative rate-limit drops
	EvParseError // arg1 = cumulative parse errors

	// Chaos plane (injected faults and their recovery machinery). New
	// types append here so the enum values above stay stable across
	// scrapes of mixed-version journals.
	EvPartition       // arg1 = link (0 reporter→collector, 1 peer↔peer), arg2 = peer
	EvPartitionHeal   // arg1 = link, arg2 = peer
	EvSlowDisk        // arg1 = injected fsync latency ns (0 = healed)
	EvClockSkew       // arg1 = skew ns (two's complement)
	EvResyncRetry     // arg1 = attempt, arg2 = backoff ns
	EvWALDegradeEnter // arg1 = observed fsync ns, arg2 = bound ns
	EvWALDegradeExit  // arg1 = probe fsync ns, arg2 = acks skipped while degraded
	EvImageFallback   // arg1 = WALLSN of the older image restored instead (0 = none, whole log replayed)
)

func (t Type) String() string {
	switch t {
	case EvSetDown:
		return "set-down"
	case EvSetUp:
		return "set-up"
	case EvWALFence:
		return "wal-fence"
	case EvEpochBump:
		return "epoch-bump"
	case EvMemberAdd:
		return "member-add"
	case EvMemberRemove:
		return "member-remove"
	case EvRebalanceStart:
		return "rebalance-start"
	case EvRebalanceEnd:
		return "rebalance-end"
	case EvResyncStart:
		return "resync-start"
	case EvResyncEnd:
		return "resync-end"
	case EvResyncFail:
		return "resync-fail"
	case EvCheckpoint:
		return "checkpoint"
	case EvWALRotate:
		return "wal-rotate"
	case EvWALTruncate:
		return "wal-truncate"
	case EvWALError:
		return "wal-error"
	case EvRecoveryStart:
		return "recovery-start"
	case EvTornTail:
		return "torn-tail"
	case EvReplayExtent:
		return "replay-extent"
	case EvReadRepair:
		return "read-repair"
	case EvStallStart:
		return "stall-start"
	case EvStallEnd:
		return "stall-end"
	case EvRateShed:
		return "rate-shed"
	case EvParseError:
		return "parse-error"
	case EvPartition:
		return "partition"
	case EvPartitionHeal:
		return "partition-heal"
	case EvSlowDisk:
		return "slow-disk"
	case EvClockSkew:
		return "clock-skew"
	case EvResyncRetry:
		return "resync-retry"
	case EvWALDegradeEnter:
		return "wal-degrade-enter"
	case EvWALDegradeExit:
		return "wal-degrade-exit"
	case EvImageFallback:
		return "image-fallback"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Detail renders the event's type-specific arguments for humans. The
// scrape/render side is the only place names and strings appear — the
// publish path stores enum codes and integers.
func (ev *Event) Detail() string {
	switch ev.Type {
	case EvSetDown, EvSetUp:
		return fmt.Sprintf("epoch=%d", ev.Arg1)
	case EvWALFence:
		return fmt.Sprintf("peer-marks=%d", ev.Arg1)
	case EvEpochBump:
		return fmt.Sprintf("epoch=%d", ev.Arg1)
	case EvMemberAdd, EvMemberRemove:
		return fmt.Sprintf("members=%d epoch=%d", ev.Arg1, ev.Arg2)
	case EvRebalanceStart:
		return fmt.Sprintf("stale-targets=%d", ev.Arg1)
	case EvRebalanceEnd:
		return fmt.Sprintf("resynced=%d in %s", ev.Arg1, time.Duration(ev.Arg2))
	case EvResyncStart:
		return fmt.Sprintf("stale-since-epoch=%d peers=%d", ev.Arg1, ev.Arg2)
	case EvResyncEnd:
		return fmt.Sprintf("slots=%d skipped=%d in %s", ev.Arg1, ev.Arg2, time.Duration(ev.Arg3))
	case EvResyncFail:
		return fmt.Sprintf("stale-since-epoch=%d", ev.Arg1)
	case EvCheckpoint:
		return fmt.Sprintf("lsn=%d", ev.Arg1)
	case EvWALRotate:
		return fmt.Sprintf("new-segment-lsn=%d fsync=%s", ev.Arg1, time.Duration(ev.Arg2))
	case EvWALTruncate:
		return fmt.Sprintf("below-lsn=%d segments-reclaimed=%d", ev.Arg1, ev.Arg2)
	case EvWALError:
		if ev.Arg1 != 0 {
			return fmt.Sprintf("flusher failed (sticky): %s", syscall.Errno(ev.Arg1).Error())
		}
		return "flusher failed (sticky)"
	case EvRecoveryStart:
		return "replaying checkpoint + log"
	case EvTornTail:
		return fmt.Sprintf("truncated=%dB", ev.Arg1)
	case EvReplayExtent:
		return fmt.Sprintf("last-lsn=%d skipped=%d", ev.Arg1, ev.Arg2)
	case EvReadRepair:
		return fmt.Sprintf("repaired=%d cumulative=%d", ev.Arg1, ev.Arg2)
	case EvStallStart:
		return fmt.Sprintf("queue-cap=%d", ev.Arg1)
	case EvStallEnd:
		return fmt.Sprintf("blocked %s", time.Duration(ev.Arg1))
	case EvRateShed:
		return fmt.Sprintf("cumulative-drops=%d", ev.Arg1)
	case EvParseError:
		return fmt.Sprintf("cumulative-errors=%d", ev.Arg1)
	case EvPartition, EvPartitionHeal:
		if ev.Arg1 == 0 {
			return "link=reporter"
		}
		return fmt.Sprintf("link=peer peer=%d", ev.Arg2)
	case EvSlowDisk:
		if ev.Arg1 == 0 {
			return "fsync-latency=healed"
		}
		return fmt.Sprintf("fsync-latency=%s", time.Duration(ev.Arg1))
	case EvClockSkew:
		return fmt.Sprintf("skew=%s", time.Duration(int64(ev.Arg1)))
	case EvResyncRetry:
		return fmt.Sprintf("attempt=%d backoff=%s", ev.Arg1, time.Duration(ev.Arg2))
	case EvWALDegradeEnter:
		return fmt.Sprintf("fsync=%s bound=%s", time.Duration(ev.Arg1), time.Duration(ev.Arg2))
	case EvWALDegradeExit:
		return fmt.Sprintf("probe=%s skipped-acks=%d", time.Duration(ev.Arg1), ev.Arg2)
	case EvImageFallback:
		if ev.Arg1 == 0 {
			return "newest checkpoint image damaged: replayed the whole log"
		}
		return fmt.Sprintf("newest checkpoint image damaged: restored the one at lsn=%d", ev.Arg1)
	}
	return fmt.Sprintf("args=%d,%d,%d", ev.Arg1, ev.Arg2, ev.Arg3)
}
