package collector

import (
	"testing"

	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/rdma"
	"dta/internal/wire"
)

func TestNewRequiresAPrimitive(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestRegionsAdvertised(t *testing.T) {
	kw := keywrite.Config{Slots: 64, DataSize: 4}
	ki := keyincrement.Config{Slots: 64}
	pc := postcarding.Config{Chunks: 64, Hops: 5, Values: []uint32{1, 2, 3}}
	ap := appendlist.Config{Lists: 2, EntriesPerList: 16, EntrySize: 4}
	h, err := New(Config{KeyWrite: &kw, KeyIncrement: &ki, Postcarding: &pc, Append: &ap})
	if err != nil {
		t.Fatal(err)
	}
	l := h.Listener()
	for _, label := range []string{"keywrite", "keyincrement", "postcarding", "append"} {
		g, ok := rdma.FindRegion(l.Regions, label)
		if !ok {
			t.Errorf("region %q not advertised", label)
			continue
		}
		if g.Length == 0 || g.RKey == 0 {
			t.Errorf("region %q malformed: %+v", label, g)
		}
	}
	// Slot geometry is advertised so the translator can shift-address.
	g, _ := rdma.FindRegion(l.Regions, "keywrite")
	if g.Slots != 64 || g.SlotSize != 8 {
		t.Errorf("keywrite geometry %+v", g)
	}
}

func TestQueriesOnDisabledPrimitives(t *testing.T) {
	kw := keywrite.Config{Slots: 64, DataSize: 4}
	h, err := New(Config{KeyWrite: &kw})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.QueryCount(wire.KeyFromUint64(1), 1); err != ErrDisabled {
		t.Errorf("QueryCount err = %v", err)
	}
	if _, err := h.QueryPostcards(wire.KeyFromUint64(1), 1); err != ErrDisabled {
		t.Errorf("QueryPostcards err = %v", err)
	}
	if _, err := h.AppendPoller(0); err != ErrDisabled {
		t.Errorf("AppendPoller err = %v", err)
	}
	if _, err := h.QueryKeyWrite(wire.KeyFromUint64(1), 1, 1); err != nil {
		t.Errorf("QueryKeyWrite err = %v", err)
	}
}

// post builds raw bytes as an entry at q's tail and posts it.
func post(q *rdma.SendQueue, raw []byte) {
	w := q.Tail(len(raw))
	copy(w, raw)
	q.Post(w)
}

// TestIngestRejectsGarbage: garbage and every non-empty strict prefix of
// a WRITE, a WRITE with immediate and a FETCH&ADD work-queue entry, of
// one replica and of two, fail the doorbell and change nothing; the
// whole entries then execute.
func TestIngestRejectsGarbage(t *testing.T) {
	kw := keywrite.Config{Slots: 64, DataSize: 4}
	ki := keyincrement.Config{Slots: 64}
	h, _ := New(Config{KeyWrite: &kw, KeyIncrement: &ki})
	var q rdma.SendQueue
	doorbell := h.Doorbell(&q)
	var c rdma.Completion
	post(&q, []byte{1, 2, 3})
	if err := doorbell(&c); err == nil {
		t.Error("garbage accepted")
	}
	req, regions := rdma.Connect(h.Listener(), 0)
	kwReg, _ := rdma.FindRegion(regions, "keywrite")
	kiReg, _ := rdma.FindRegion(regions, "keyincrement")
	imm := uint32(3)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, n := range []int{1, 2} {
		kwVAs, kiVAs := []uint64{kwReg.VA, kwReg.VA + 64}[:n], []uint64{kiReg.VA, kiReg.VA + 64}[:n]
		for _, build := range []func(psn uint32) []byte{
			func(psn uint32) []byte {
				return new(rdma.SendQueue).WriteWQE(req.DestQP, psn, kwVAs, kwReg.RKey, payload, true, nil)
			},
			func(psn uint32) []byte {
				return new(rdma.SendQueue).WriteWQE(req.DestQP, psn, kwVAs, kwReg.RKey, payload, false, &imm)
			},
			func(psn uint32) []byte {
				return new(rdma.SendQueue).FetchAddWQE(req.DestQP, psn, kiVAs, kiReg.RKey, 1)
			},
		} {
			w, before := build(req.NextPSNs(n)), h.Device().Stats
			for m := 1; m < len(w); m++ {
				post(&q, w[:m])
				if err := doorbell(&c); err == nil {
					t.Fatalf("%d-byte prefix of a %d-byte WQE accepted", m, len(w))
				}
			}
			if st := h.Device().Stats; st != before {
				t.Fatalf("a refused WQE changed the device: %+v, was %+v", st, before)
			}
			post(&q, w)
			if err := doorbell(&c); err != nil || !c.Set || c.Syndrome != rdma.SynACK {
				t.Fatalf("whole WQE: completion %+v, %v", c, err)
			}
		}
	}
}

func TestEventOverflowCounted(t *testing.T) {
	kw := keywrite.Config{Slots: 64, DataSize: 4}
	h, err := New(Config{KeyWrite: &kw, EventBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Write directly through the device with immediates to overflow the
	// 1-slot event channel.
	l := h.Listener()
	req, regions := rdma.Connect(l, 0)
	g, _ := rdma.FindRegion(regions, "keywrite")
	imm := uint32(5)
	var q rdma.SendQueue
	doorbell := h.Doorbell(&q)
	for i := 0; i < 3; i++ {
		q.Post(q.WriteWQE(req.DestQP, req.NextPSN(), []uint64{g.VA}, g.RKey, []byte{1}, false, &imm))
		if err := doorbell(new(rdma.Completion)); err != nil {
			t.Fatal(err)
		}
	}
	if h.DroppedEvents != 2 {
		t.Errorf("dropped events = %d, want 2", h.DroppedEvents)
	}
	if len(h.Events) != 1 {
		t.Errorf("queued events = %d, want 1", len(h.Events))
	}
}
