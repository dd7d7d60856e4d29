package ha

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dta/internal/collector"
	"dta/internal/core/keyincrement"
	"dta/internal/rdma"
	"dta/internal/snapshot"
)

// TestResyncKeyIncrementPeerOrderIndependent: Key-Increment resync is an
// element-wise max, so replaying the same peers in any order leaves the
// same counters and the same dirty tags on the target. One peer carries
// dirty tags and the target's staleness window is open (StaleSince > 0),
// so that peer's blocks older than the window are skipped in every
// order; the untagged peers are replayed in full. ResyncStats.Counters
// counts raises and may differ between orders. Key-Write and Postcarding
// resync are last-writer-wins by design and are not covered here.
func TestResyncKeyIncrementPeerOrderIndependent(t *testing.T) {
	const blocks = 8
	cfg := keyincrement.Config{Slots: blocks * rdma.TagBlockBytes / keyincrement.CounterSize}
	rng := rand.New(rand.NewSource(1))
	counters := func() []byte {
		b := make([]byte, cfg.BufferSize())
		for off := 0; off < len(b); off += keyincrement.CounterSize {
			if rng.Intn(3) > 0 {
				binary.BigEndian.PutUint64(b[off:], uint64(rng.Intn(100)))
			}
		}
		return b
	}
	const staleSince = 3
	own := counters()
	peers := make([]Peer, 3)
	for i := range peers {
		peers[i].Snap = &snapshot.Snapshot{KeyIncrement: &cfg, KeyIncBuf: counters()}
	}
	tagged := peers[1].Snap
	tagged.TagBlockBytes = rdma.TagBlockBytes
	tagged.KeyIncTags = make([]uint64, blocks)
	for b := range tagged.KeyIncTags {
		tagged.KeyIncTags[b] = uint64(1 + b%4) // blocks tagged 1 and 2 are outside the window
	}

	// The answer every order must reach: the element-wise max of the
	// target and each peer's in-window counters.
	want := bytes.Clone(own)
	for _, p := range peers {
		for off := 0; off < len(want); off += keyincrement.CounterSize {
			if p.Snap.KeyIncTags != nil && p.Snap.KeyIncTags[off/rdma.TagBlockBytes] < staleSince {
				continue
			}
			if v := binary.BigEndian.Uint64(p.Snap.KeyIncBuf[off:]); v > binary.BigEndian.Uint64(want[off:]) {
				binary.BigEndian.PutUint64(want[off:], v)
			}
		}
	}

	var firstTags []uint64
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		host, err := collector.New(collector.Config{KeyIncrement: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		copy(host.KeyIncrementStore().Buffer(), own)
		h := NewHealthScoped(nil)
		for h.Epoch() < staleSince+2 {
			h.BumpEpoch()
		}
		tk := NewTracker(h, host.Listener())
		ordered := make([]Peer, len(order))
		for i, p := range order {
			ordered[i] = peers[p]
		}
		st, err := Resync(Target{Host: host, Dirty: tk, StaleSince: staleSince}, ordered)
		if err != nil {
			t.Fatal(err)
		}
		if skipped := uint64(blocks / 2 * rdma.TagBlockBytes / keyincrement.CounterSize); st.SlotsSkipped != skipped {
			t.Errorf("order %v: %d slots skipped, want the tagged peer's %d out-of-window slots", order, st.SlotsSkipped, skipped)
		}
		if !bytes.Equal(host.KeyIncrementStore().Buffer(), want) {
			t.Errorf("order %v: counters are not the element-wise max", order)
		}
		tags := tk.Tags("keyincrement")
		if firstTags == nil {
			firstTags = tags
		} else if !slices.Equal(tags, firstTags) {
			t.Errorf("order %v: dirty tags %v, order [0 1 2] left %v", order, tags, firstTags)
		}
	}
	if !slices.ContainsFunc(firstTags, func(tag uint64) bool { return tag != 0 }) {
		t.Error("resync raised no counter: the test exercised nothing")
	}
}

// TestMergeSlotsMatchesPerSlotReference holds mergeSlots, which skips a
// run of stale blocks at once, to the per-slot loop it replaced: the same
// target bytes, merged and skipped counts and target dirty tags, over
// slot sizes that divide a tag block and one (9) whose slots straddle
// block edges, for no tags, all-stale tags and random ones (full and cut
// short), and windows of 0, mid-range and past the newest tag.
func TestMergeSlotsMatchesPerSlotReference(t *testing.T) {
	const blocks, newest = 16, 8
	rng := rand.New(rand.NewSource(60))
	randomTags := func(n int) []uint64 {
		tags := make([]uint64, n)
		for b := range tags {
			tags[b] = uint64(rng.Intn(newest + 1))
		}
		return tags
	}
	tagSets := []struct {
		name string
		tags []uint64
	}{
		{"nil", nil},
		{"all-stale", slices.Repeat([]uint64{1}, blocks)},
		{"random", randomTags(blocks)},
		{"random-short", randomTags(blocks - 3)},
	}
	// store fills n bytes slot by slot, leaving about a third of the
	// slots zero; a counter slot holds a small big-endian count.
	store := func(n, size int) []byte {
		b := make([]byte, n)
		for off := 0; off+size <= n; off += size {
			switch {
			case rng.Intn(3) == 0:
			case size == keyincrement.CounterSize:
				binary.BigEndian.PutUint64(b[off:], uint64(rng.Intn(100)))
			default:
				rng.Read(b[off : off+size])
			}
		}
		return b
	}
	type rule struct {
		name string
		take func(dst, src []byte) bool
	}
	for _, size := range []int{4, 8, 9, 16, 68} {
		rules := []rule{{"occupied", occupied}}
		if size == keyincrement.CounterSize {
			rules = append(rules, rule{"larger", larger})
		}
		for _, r := range rules {
			for _, ts := range tagSets {
				for _, since := range []uint64{0, newest / 2, newest + 1} {
					src, own := store(blocks*rdma.TagBlockBytes, size), store(blocks*rdma.TagBlockBytes, size)
					run := func(merge func(Target, string, []byte, []byte, int, []uint64, int, func(dst, src []byte) bool, *ResyncStats) uint64) ([]byte, uint64, uint64, []uint64) {
						h := NewHealthScoped(nil)
						h.BumpEpoch()
						d := rdma.NewDevice()
						mr := d.RegisterMemory(len(own))
						copy(mr.Buf, own)
						tk := NewTracker(h, &rdma.Listener{Device: d, Regions: []rdma.RegionInfo{
							{Label: "store", RKey: mr.RKey, VA: mr.Base, Length: uint64(len(mr.Buf))},
						}})
						var st ResyncStats
						merged := merge(Target{Dirty: tk, StaleSince: since}, "store", mr.Buf, src, size, ts.tags, rdma.TagBlockBytes, r.take, &st)
						return mr.Buf, merged, st.SlotsSkipped, tk.Tags("store")
					}
					gotBuf, gotMerged, gotSkipped, gotTags := run(mergeSlots)
					wantBuf, wantMerged, wantSkipped, wantTags := run(referenceMergeSlots)
					name := fmt.Sprintf("size %d, %s, tags %s, window %d", size, r.name, ts.name, since)
					if gotMerged != wantMerged || gotSkipped != wantSkipped {
						t.Errorf("%s: merged %d skipped %d, reference %d and %d", name, gotMerged, gotSkipped, wantMerged, wantSkipped)
					}
					if !bytes.Equal(gotBuf, wantBuf) {
						t.Errorf("%s: target bytes differ from the reference's", name)
					}
					if !slices.Equal(gotTags, wantTags) {
						t.Errorf("%s: target dirty tags %v, reference %v", name, gotTags, wantTags)
					}
					if wantMerged == 0 && since == 0 {
						t.Errorf("%s: nothing merged with the window shut: the case exercises nothing", name)
					}
				}
			}
		}
	}
}

// referenceMergeSlots is the per-slot merge loop mergeSlots replaced:
// one blockStale call per slot.
func referenceMergeSlots(t Target, label string, buf, src []byte, slot int, tags []uint64, blockBytes int,
	take func(dst, src []byte) bool, st *ResyncStats) (merged uint64) {
	for off := 0; off+slot <= len(src) && off+slot <= len(buf); off += slot {
		if blockStale(tags, blockBytes, t.StaleSince, off, slot) {
			st.SlotsSkipped++
			continue
		}
		if take(buf[off:off+slot], src[off:off+slot]) {
			copy(buf[off:off+slot], src[off:off+slot])
			merged++
			if t.Dirty != nil {
				t.Dirty.MarkRange(label, off, slot)
			}
		}
	}
	return merged
}

// blockStale reports whether the slot at [off, off+size) can be skipped:
// every block it touches was last written before the staleness window
// opened. Nil tags (or a zero window) keep everything.
func blockStale(tags []uint64, blockBytes int, since uint64, off, size int) bool {
	if since == 0 || tags == nil || blockBytes <= 0 {
		return false
	}
	first, last := off/blockBytes, (off+size-1)/blockBytes
	for b := first; b <= last; b++ {
		if b < len(tags) && tags[b] >= since {
			return false
		}
	}
	return true
}
