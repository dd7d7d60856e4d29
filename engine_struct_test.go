package dta_test

import (
	"bytes"
	"errors"
	"runtime/debug"
	"testing"

	"dta"
	"dta/internal/reporter"
)

// workloadReporter is the call shape an engine Reporter and a frame
// sender in front of its SubmitFrame edge share.
type workloadReporter interface {
	KeyWrite(key dta.Key, data []byte, n int) error
	Increment(key dta.Key, delta uint64, n int) error
	Postcard(key dta.Key, hop, pathLen int) error
	Append(list uint32, data []byte) error
}

// driveBoth runs the same workload through an engine Reporter's typed
// methods on one cluster and, on an identical second cluster, as wire
// frames its SubmitFrame edge decodes, returning both for comparison.
func driveBoth(t *testing.T, shards int, drive func(rep workloadReporter) error) (structured, framed *dta.Cluster) {
	t.Helper()
	opts := dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 12, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 10},
		Postcarding:  &dta.PostcardingOptions{Chunks: 1 << 10, Hops: 3, Values: []uint32{1, 2, 3, 4, 5, 6, 7}},
		Append:       &dta.AppendOptions{Lists: 4, EntriesPerList: 1 << 10, EntrySize: 4, Batch: 4},
	}
	for _, mode := range []bool{false, true} {
		cl, err := dta.NewCluster(shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cl.Engine(dta.EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rep := eng.Reporter(5)
		var drv workloadReporter = rep
		if mode {
			drv = &reporter.Sender{Rep: reporter.New(reporter.Config{SwitchID: 5}), Send: rep.SubmitFrame}
		}
		if err := drive(drv); err != nil {
			t.Fatal(err)
		}
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if mode {
			framed = cl
		} else {
			structured = cl
		}
	}
	return structured, framed
}

// TestStructuredMatchesFramePath drives an identical mixed-primitive
// workload through the typed methods and, encoded as wire frames,
// through the frame edge, and requires identical query results and
// counters: decoding at the edge must be invisible to stored state.
func TestStructuredMatchesFramePath(t *testing.T) {
	const n = 500
	structured, framed := driveBoth(t, 3, func(rep workloadReporter) error {
		for i := 0; i < n; i++ {
			k := dta.KeyFromUint64(uint64(i))
			if err := rep.KeyWrite(k, []byte{byte(i), 1, 2, 3}, 2); err != nil {
				return err
			}
			if err := rep.Increment(k, uint64(i%7+1), 2); err != nil {
				return err
			}
			for hop := 0; hop < 3; hop++ {
				if err := rep.Postcard(dta.KeyFromUint64(uint64(i%50)), hop, 3); err != nil {
					return err
				}
			}
			if err := rep.Append(uint32(i%4), []byte{byte(i), 0xaa, 0xbb, 0xcc}); err != nil {
				return err
			}
		}
		return nil
	})

	for i := 0; i < n; i++ {
		k := dta.KeyFromUint64(uint64(i))
		sv, sok, err := structured.LookupValue(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		fv, fok, err := framed.LookupValue(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sok != fok || !bytes.Equal(sv, fv) {
			t.Fatalf("key %d: structured (%v,%v) != framed (%v,%v)", i, sv, sok, fv, fok)
		}
		sc, _ := structured.LookupCount(k, 2)
		fc, _ := framed.LookupCount(k, 2)
		if sc != fc {
			t.Fatalf("key %d: count %d != %d", i, sc, fc)
		}
	}
	for i := 0; i < 50; i++ {
		k := dta.KeyFromUint64(uint64(i))
		sp, sok, _ := structured.LookupPath(k, 1)
		fp, fok, _ := framed.LookupPath(k, 1)
		if sok != fok {
			t.Fatalf("flow %d: path found %v != %v", i, sok, fok)
		}
		if sok {
			for h := range sp {
				if sp[h] != fp[h] {
					t.Fatalf("flow %d hop %d: %d != %d", i, h, sp[h], fp[h])
				}
			}
		}
	}
	ss, fs := structured.Stats(), framed.Stats()
	if ss.Reports != fs.Reports || ss.RDMAWrites != fs.RDMAWrites || ss.RDMAAtomics != fs.RDMAAtomics {
		t.Fatalf("stats diverge: structured %+v, framed %+v", ss, fs)
	}
}

// TestStructuredValidationMatchesWire: invalid reports must be rejected
// at submission, exactly like the wire decoder would reject them.
func TestStructuredValidationMatchesWire(t *testing.T) {
	cl, err := dta.NewCluster(1, dta.Options{KeyWrite: &dta.KeyWriteOptions{Slots: 64, DataSize: 4}, Append: &dta.AppendOptions{Lists: 1, EntriesPerList: 16, EntrySize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cl.Engine(dta.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep := eng.Reporter(1)
	if err := rep.KeyWrite(dta.KeyFromUint64(1), []byte{1}, 0); err == nil {
		t.Error("redundancy-0 Key-Write accepted")
	}
	if err := rep.KeyWrite(dta.KeyFromUint64(1), make([]byte, 65), 1); err == nil {
		t.Error("oversized Key-Write payload accepted")
	}
	if err := rep.Append(0, nil); err == nil {
		t.Error("empty Append accepted")
	}
	if err := rep.Postcard(dta.KeyFromUint64(1), 3, 3); err == nil {
		t.Error("postcard hop outside path accepted")
	}
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06
	if err := rep.SubmitFrame(arp); !errors.Is(err, dta.ErrNotDTA) {
		t.Errorf("user-traffic frame: err = %v, want ErrNotDTA", err)
	}
	if err := rep.SubmitFrame(arp[:10]); err == nil {
		t.Error("truncated frame accepted")
	}
	if st := eng.Stats(); st.Enqueued != 0 {
		t.Errorf("invalid reports reached a queue: %+v", st)
	}
}

// TestEngineStructuredEndToEndZeroAllocs pins the whole structured
// ingest chain — engine Reporter staging, shard queue, translator RDMA
// crafting, device execution — at zero allocations per Key-Write once
// buffers and pools are warm.
func TestEngineStructuredEndToEndZeroAllocs(t *testing.T) {
	cl, err := dta.NewCluster(1, dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 16, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cl.Engine(dta.EngineConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep := eng.Reporter(1)
	data := []byte{1, 2, 3, 4}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 20_000; i++ { // warm pools, buffers and queues
		if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
			t.Fatal(err)
		}
		if err := rep.Increment(dta.KeyFromUint64(uint64(i)), 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(5000, func() {
		if err := rep.KeyWrite(dta.KeyFromUint64(i), data, 2); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("structured end-to-end Key-Write allocated %.2f/op, want 0", allocs)
	}
}
