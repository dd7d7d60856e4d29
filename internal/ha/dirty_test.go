package ha

import (
	"testing"

	"dta/internal/rdma"
)

// trackedDevice registers a keywrite region of 8 blocks and a
// keyincrement region of 2, connects a QP, and turns tracking on.
func trackedDevice(t *testing.T, h *Health) (*rdma.Device, *Tracker, *rdma.ResponderQP, [2]*rdma.MemoryRegion) {
	t.Helper()
	d := rdma.NewDevice()
	kw := d.RegisterMemory(8 * rdma.TagBlockBytes)
	ki := d.RegisterMemory(2 * rdma.TagBlockBytes)
	qp := d.CreateQP(0)
	l := &rdma.Listener{Device: d, Regions: []rdma.RegionInfo{
		{Label: "keywrite", RKey: kw.RKey, VA: kw.Base, Length: uint64(len(kw.Buf))},
		{Label: "keyincrement", RKey: ki.RKey, VA: ki.Base, Length: uint64(len(ki.Buf))},
	}}
	return d, NewTracker(h, l), qp, [2]*rdma.MemoryRegion{kw, ki}
}

// TestRegionTagsRaisedByExecution: the device raises the tags of the
// blocks each executed verb writes, to the epoch read when the doorbell
// rang; MarkRange stamps collector-CPU writes; tags only move forward;
// a faulted verb tags nothing.
func TestRegionTagsRaisedByExecution(t *testing.T) {
	h := NewHealth()
	d, tk, qp, mr := trackedDevice(t, h)
	kw, ki := mr[0], mr[1]

	if got := tk.Tags("keywrite"); len(got) != 8 {
		t.Fatalf("keywrite tags = %d blocks, want 8", len(got))
	}
	if tk.Tags("nosuch") != nil {
		t.Error("unknown label returned tags")
	}
	psn := uint32(0)
	run := func(verbs ...[]byte) {
		t.Helper()
		var q rdma.SendQueue
		for _, v := range verbs {
			q.Post(v)
		}
		if _, _, err := d.Execute(&q, nil); err != nil {
			t.Fatal(err)
		}
	}
	next := func() uint32 { psn++; return psn - 1 }

	// A WRITE into block 2 tags it with the current epoch; everything
	// else stays at 0 (never written).
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	run(rdma.WriteWQE(nil, qp.QPN, next(), kw.Base+2*rdma.TagBlockBytes+10, kw.RKey, payload, false, nil))
	for b, tag := range tk.Tags("keywrite") {
		want := uint64(0)
		if b == 2 {
			want = 1 // NewHealth starts the epoch clock at 1
		}
		if tag != want {
			t.Errorf("block %d tag = %d, want %d", b, tag, want)
		}
	}

	// One list after a bump: a write straddling a block boundary tags
	// both blocks, a FETCH&ADD tags the other region, all at the epoch
	// the doorbell read.
	h.BumpEpoch()
	run(rdma.WriteWQE(nil, qp.QPN, next(), kw.Base+4*rdma.TagBlockBytes-4, kw.RKey, payload, false, nil),
		rdma.FetchAddWQE(nil, qp.QPN, next(), ki.Base+rdma.TagBlockBytes, ki.RKey, 5))
	if tags := tk.Tags("keywrite"); tags[3] != 2 || tags[4] != 2 {
		t.Errorf("straddling write: blocks 3,4 = %d,%d, want 2,2", tags[3], tags[4])
	}
	if got := tk.Tags("keyincrement"); got[0] != 0 || got[1] != 2 {
		t.Errorf("fetchadd tags = %v, want [0 2]", got)
	}

	// Epochs only move forward, whoever raises them.
	ki.RaiseTags(rdma.TagBlockBytes, 8, 1)
	if got := tk.Tags("keyincrement"); got[1] != 2 {
		t.Errorf("tag lowered by stale raise: %d", got[1])
	}
	h.BumpEpoch()
	tk.MarkRange("keyincrement", 0, 8)
	tk.MarkRange("nosuch", 0, 8) // untracked: ignored
	if got := tk.Tags("keyincrement"); got[0] != 3 {
		t.Errorf("MarkRange: block 0 = %d, want 3", got[0])
	}

	// A write past the region faults and tags nothing; so does an empty
	// range.
	before := tk.Tags("keywrite")
	run(rdma.WriteWQE(nil, qp.QPN, psn, kw.Base+8*rdma.TagBlockBytes-4, kw.RKey, payload, false, nil))
	kw.RaiseTags(0, 0, 9)
	if d.Stats.AccessErrs != 1 {
		t.Fatalf("overrun write not faulted: %+v", d.Stats)
	}
	for b, tag := range tk.Tags("keywrite") {
		if tag != before[b] {
			t.Errorf("block %d changed %d → %d by a faulted write", b, before[b], tag)
		}
	}
}

// TestUntrackedDeviceHasNoTags: outside HA the regions carry no tags and
// execution raises nothing.
func TestUntrackedDeviceHasNoTags(t *testing.T) {
	d := rdma.NewDevice()
	mr := d.RegisterMemory(4 * rdma.TagBlockBytes)
	qp := d.CreateQP(0)
	if _, _, err := d.Process(rdma.BuildWrite(nil, qp.QPN, 0, mr.Base, mr.RKey, []byte{1}, false, nil), nil); err != nil {
		t.Fatal(err)
	}
	if mr.Tags != nil {
		t.Errorf("untracked region has %d tags", len(mr.Tags))
	}
	mr.RaiseTags(0, 8, 1) // no-op, no panic
}
