package ha

import (
	"bytes"
	"encoding/binary"
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
