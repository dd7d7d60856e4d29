package ha

import (
	"encoding/binary"
	"fmt"

	"dta/internal/collector"
	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/postcarding"
	"dta/internal/snapshot"
)

// ResyncStats summarises one replica resynchronisation.
type ResyncStats struct {
	// Peers is the number of peers replayed.
	Peers int
	// KeyWriteSlots counts Key-Write slots copied from peers.
	KeyWriteSlots uint64
	// Counters counts Key-Increment counters raised to a peer's value.
	Counters uint64
	// PostcardSlots counts Postcarding hop slots copied from peers.
	PostcardSlots uint64
	// AppendLists counts lists whose ring suffix was replayed; and
	// AppendEntries the entries copied across all of them.
	AppendLists   uint64
	AppendEntries uint64
	// SlotsSkipped counts slots incremental resync never scanned because
	// their block's last-write epoch predates the target's staleness
	// window (summed across peers and primitives).
	SlotsSkipped uint64
}

// SlotsReplayed sums the slots actually merged into the target.
func (st *ResyncStats) SlotsReplayed() uint64 {
	return st.KeyWriteSlots + st.Counters + st.PostcardSlots + st.AppendEntries
}

// AppendOps streams to yield, in log order, the Append operations a
// peer's log holds for the target: (list, entry) pairs its translator
// admitted after the target's watermark LSN that the target missed and
// this peer is the one to replay (the caller decides both from each
// record's recipient set). The callback's data slice is only valid
// during the call.
type AppendOps func(yield func(list uint32, data []byte) error) error

// Peer is one resync source: its stores, plus optionally the operations
// its log holds for the target. Snap may alias the peer's stores
// (snapshot.View) while nothing writes them; a peer an earlier resync of
// the same pass writes is copied before it (snapshot.Capture). When
// AppendOps is non-nil, Append recovery replays them through the
// target's own ring instead of copying the peer's index-aligned ring
// suffix — exact under concurrent producers, where index alignment
// loses the entries whose arrival order skewed across the failure
// boundary. The peers' streams are disjoint: each missed entry comes
// from one of them.
type Peer struct {
	Snap      *snapshot.Snapshot
	AppendOps AppendOps
}

// Target bundles the mutable state of the collector being resynced.
type Target struct {
	// Host is the collector whose stores receive the replay.
	Host *collector.Host
	// Batcher is the target translator's Append batcher, whose head
	// pointers are advanced when peer ring segments are replayed. Nil
	// skips Append resync (snapshots without head metadata skip it too).
	Batcher *appendlist.Batcher
	// Dirty, when non-nil, is stamped for every merged range so the
	// target can in turn serve as an incremental peer later.
	Dirty *Tracker
	// StaleSince is the epoch at which the target went stale: peers'
	// blocks whose last-write epoch is older are skipped. Zero replays
	// everything (a newly added collector, or peers without tags).
	StaleSince uint64
}

// Resync replays peer stores into a rejoining or newly added
// collector, reconstructing the writes it missed while down (or never
// saw). It exploits the stores' statelessness: every collector computes
// slot addresses from the same global CRC families, so slot i of a
// peer's store holds exactly the keys that hash to slot i of the
// target's store — resync is slot-wise memory merge, no key iteration.
//
// Per primitive (the first three through one slot merge, mergeSlots):
//
//   - Key-Write: every occupied (non-zero) peer slot overwrites the
//     target slot. Peers are strictly fresher for keys the target
//     missed; for colliding foreign keys the overwrite is the same
//     last-writer-wins hazard the store already absorbs via its
//     N-slot plurality vote.
//   - Key-Increment: element-wise max. Each owner of a key receives
//     every increment for it, so a peer's counter is an upper bound on
//     the slot's true sum for shared keys; max-merge preserves the
//     count-min "never undercounts" guarantee without double counting.
//   - Postcarding: every occupied peer hop slot overwrites the target
//     slot (slots are checksum⊕g(v) encodings, consistent across
//     replicas for the same flow).
//   - Append: ring-suffix replay. Snapshots carry each list's
//     cumulative flushed-entry count; the entries the target's own
//     count trails the peer's by (capped at one ring) are copied
//     index-for-index — both translators address list l's ring
//     identically — and the target's head pointer is advanced to the
//     peer's. The target's own pre-failure prefix is left untouched, so
//     two histories are never interleaved entry-by-entry; with multiple
//     concurrent reporters the suffix can reorder across the failure
//     boundary, the same best-effort hazard failover polling has.
//
// When t.StaleSince > 0 and a peer carries dirty-epoch tags, only the
// blocks written at or after that epoch are scanned: everything older
// was already replicated to the target while it was still up. Peers
// without tags (or a zero StaleSince, which is how a full replay is
// asked for) are replayed in full.
//
// Peer slots for keys the target does not own come along for the ride;
// they are invisible to routed queries (ownership routing never asks
// the target for them) and harmless to owned keys beyond the usual
// collision probability.
//
// The target must be quiescent (no concurrent ingest): callers run
// Resync under a drain barrier.
func Resync(t Target, peers []Peer) (ResyncStats, error) {
	st := ResyncStats{Peers: len(peers)}
	for pi, peer := range peers {
		var err error
		if peer.Snap != nil {
			err = mergeStores(t, peer.Snap, &st)
		}
		if err == nil && peer.AppendOps != nil {
			err = mergeAppendOps(t, peer.AppendOps, &st)
		} else if err == nil && peer.Snap != nil {
			err = mergeAppend(t, peer.Snap, &st)
		}
		if err != nil {
			return st, fmt.Errorf("ha: resync peer %d: %w", pi, err)
		}
	}
	return st, nil
}

// mergeStores merges the peer's Key-Write, Key-Increment and Postcarding
// stores into the target's, each through mergeSlots once its geometry
// matches.
func mergeStores(t Target, p *snapshot.Snapshot, st *ResyncStats) error {
	if dst := t.Host.KeyWriteStore(); dst != nil && p.KeyWrite != nil {
		cfg := dst.Indexer().Config()
		if *p.KeyWrite != cfg {
			return fmt.Errorf("key-write geometry mismatch: peer %+v vs %+v", *p.KeyWrite, cfg)
		}
		st.KeyWriteSlots += mergeSlots(t, "keywrite", dst.Buffer(), p.KeyWriteBuf, cfg.SlotSize(),
			p.KeyWriteTags, p.TagBlockBytes, occupied, st)
	}
	if dst := t.Host.KeyIncrementStore(); dst != nil && p.KeyIncrement != nil {
		if len(p.KeyIncBuf) != len(dst.Buffer()) {
			return fmt.Errorf("key-increment geometry mismatch: peer %dB vs %dB", len(p.KeyIncBuf), len(dst.Buffer()))
		}
		st.Counters += mergeSlots(t, "keyincrement", dst.Buffer(), p.KeyIncBuf, keyincrement.CounterSize,
			p.KeyIncTags, p.TagBlockBytes, larger, st)
	}
	if dst := t.Host.PostcardingStore(); dst != nil && p.Postcarding != nil {
		cfg, pc := dst.Coder().Config(), *p.Postcarding
		if pc.Chunks != cfg.Chunks || pc.Hops != cfg.Hops || pc.SlotBits != cfg.SlotBits {
			return fmt.Errorf("postcarding geometry mismatch: peer %d×%d vs %d×%d",
				pc.Chunks, pc.Hops, cfg.Chunks, cfg.Hops)
		}
		st.PostcardSlots += mergeSlots(t, "postcarding", dst.Buffer(), p.PostcardBuf, postcarding.SlotSize,
			p.PostcardTags, p.TagBlockBytes, occupied, st)
	}
	return nil
}

// occupied takes a peer slot that holds anything (Key-Write, Postcarding).
func occupied(_, src []byte) bool {
	for _, x := range src {
		if x != 0 {
			return true
		}
	}
	return false
}

// larger takes a peer counter above the target's (Key-Increment).
func larger(dst, src []byte) bool {
	return binary.BigEndian.Uint64(src) > binary.BigEndian.Uint64(dst)
}

// mergeSlots merges the peer store src into the target store dst slot by
// slot, over the size-byte slots both hold: a slot take accepts is copied
// and stamped on the target's label tags, and the copies are counted. A
// slot is skipped (st.SlotsSkipped) only when every tag block it touches
// predates t.StaleSince, a block past the end of tags included; nil tags
// or a zero window skip nothing. Whole slots in a run of stale blocks are
// skipped at once.
func mergeSlots(t Target, label string, dst, src []byte, size int, tags []uint64, blockBytes int,
	take func(dst, src []byte) bool, st *ResyncStats) (merged uint64) {
	n := min(len(dst), len(src))
	windowed := t.StaleSince > 0 && tags != nil && blockBytes > 0
	fresh := func(b int) bool { return b < len(tags) && tags[b] >= t.StaleSince }
	for off := 0; off+size <= n; {
		if windowed && !fresh(off/blockBytes) {
			// The slot starts in a stale block: skip every whole slot
			// before the next fresh one.
			b := off/blockBytes + 1
			for b*blockBytes < n && !fresh(b) {
				b++
			}
			if k := (min(n, b*blockBytes) - off) / size; k > 0 {
				st.SlotsSkipped += uint64(k)
				off += k * size
				continue
			}
			// The slot runs on into the fresh block: merge it.
		}
		if d, s := dst[off:off+size], src[off:off+size]; take(d, s) {
			copy(d, s)
			merged++
			if t.Dirty != nil {
				t.Dirty.MarkRange(label, off, size)
			}
		}
		off += size
	}
	return merged
}

// mergeAppendOps replays a peer's logged Append operations into the
// target: each entry is appended at the target's OWN ring head (the
// operations are re-executed, not position-copied), so every entry the
// streams carry lands once regardless of how replica arrival orders
// skewed around the failure, where mergeAppend's index-aligned suffix
// copy is approximate. The target's pre-failure prefix stays in place;
// replayed entries follow it in the peer's log order.
func mergeAppendOps(t Target, ops AppendOps, st *ResyncStats) error {
	dst := t.Host.AppendStore()
	if dst == nil || t.Batcher == nil {
		return nil
	}
	cfg := dst.Config()
	entries := uint64(cfg.EntriesPerList)
	listBytes, entrySize := cfg.ListBytes(), cfg.EntrySize
	buf := dst.Buffer()
	cur := make([]uint64, cfg.Lists)
	touched := make([]bool, cfg.Lists)
	for l := range cur {
		cur[l] = t.Batcher.Written(l)
	}
	err := ops(func(list uint32, data []byte) error {
		l := int(list)
		if l < 0 || l >= cfg.Lists {
			return fmt.Errorf("ha: logged append to list %d outside [0,%d)", l, cfg.Lists)
		}
		off := l*listBytes + int(cur[l]%entries)*entrySize
		n := copy(buf[off:off+entrySize], data)
		for i := n; i < entrySize; i++ {
			buf[off+i] = 0
		}
		cur[l]++
		touched[l] = true
		st.AppendEntries++
		return nil
	})
	if err != nil {
		return err
	}
	for l, tc := range touched {
		if !tc {
			continue
		}
		if err := t.Batcher.SyncList(l, cur[l]); err != nil {
			return err
		}
		if t.Dirty != nil {
			t.Dirty.MarkRange("append", l*listBytes, listBytes)
		}
		st.AppendLists++
	}
	return nil
}

func mergeAppend(t Target, peer *snapshot.Snapshot, st *ResyncStats) error {
	dst := t.Host.AppendStore()
	if dst == nil || peer.Append == nil || peer.AppendHeads == nil || t.Batcher == nil {
		return nil
	}
	cfg := dst.Config()
	if *peer.Append != cfg {
		return fmt.Errorf("append geometry mismatch: peer %+v vs %+v", *peer.Append, cfg)
	}
	entries := uint64(cfg.EntriesPerList)
	listBytes, entrySize := cfg.ListBytes(), cfg.EntrySize
	buf, src := dst.Buffer(), peer.AppendBuf
	for l := 0; l < cfg.Lists && l < len(peer.AppendHeads); l++ {
		pw, tw := peer.AppendHeads[l], t.Batcher.Written(l)
		if pw <= tw {
			continue // target is at least as fresh for this list
		}
		missed := pw - tw
		if missed > entries {
			missed = entries // the peer's ring only retains one lap
		}
		start := (pw - missed) % entries
		for i := uint64(0); i < missed; i++ {
			idx := int((start + i) % entries)
			off := l*listBytes + idx*entrySize
			copy(buf[off:off+entrySize], src[off:off+entrySize])
			st.AppendEntries++
		}
		if err := t.Batcher.SyncList(l, pw); err != nil {
			return err
		}
		if t.Dirty != nil {
			// The replayed suffix may wrap; marking the whole list span
			// is cheap and conservative.
			t.Dirty.MarkRange("append", l*listBytes, listBytes)
		}
		st.AppendLists++
	}
	return nil
}
