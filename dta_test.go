package dta

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
)

func fullOptions() Options {
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = uint32(i + 1)
	}
	return Options{
		KeyWrite:     &KeyWriteOptions{Slots: 1 << 12, DataSize: 4},
		KeyIncrement: &KeyIncrementOptions{Slots: 1 << 12},
		Postcarding:  &PostcardingOptions{Chunks: 1 << 10, Hops: 5, Values: vals, CacheRows: 1 << 10},
		Append:       &AppendOptions{Lists: 4, EntriesPerList: 1 << 10, EntrySize: 4, Batch: 4},
	}
}

func TestNewRequiresPrimitive(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("empty options accepted")
	}
}

func TestKeyWriteRoundTrip(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Reporter(1)
	k := KeyFromUint64(42)
	if err := rep.KeyWrite(k, []byte{1, 2, 3, 4}, 2); err != nil {
		t.Fatal(err)
	}
	data, ok, err := sys.LookupValue(k, 2)
	if err != nil || !ok || !bytes.Equal(data, []byte{1, 2, 3, 4}) {
		t.Errorf("lookup = %v %v %v", data, ok, err)
	}
	// Missing key.
	if _, ok, _ := sys.LookupValue(KeyFromUint64(7777), 2); ok {
		t.Error("found missing key")
	}
}

func TestMultipleReportersShareStore(t *testing.T) {
	sys, _ := New(fullOptions())
	// Many reporters write distinct keys into the shared store — the
	// global stateless hashing is what makes this work (§4).
	for id := uint32(1); id <= 8; id++ {
		rep := sys.Reporter(id)
		var data [4]byte
		binary.BigEndian.PutUint32(data[:], id)
		if err := rep.KeyWrite(KeyFromUint64(uint64(id)), data[:], 2); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(1); id <= 8; id++ {
		data, ok, _ := sys.LookupValue(KeyFromUint64(uint64(id)), 2)
		if !ok || binary.BigEndian.Uint32(data) != id {
			t.Errorf("reporter %d's key: %v %v", id, data, ok)
		}
	}
}

func TestPostcardAggregationAcrossReporters(t *testing.T) {
	sys, _ := New(fullOptions())
	// Five switches on the path each send their own postcard, as in a
	// real deployment: the translator aggregates them into one chunk.
	k := FiveTupleKey([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 80, 443, 6)
	for hop := 0; hop < 5; hop++ {
		rep := sys.Reporter(uint32(hop + 1)) // switch IDs 1..5
		if err := rep.Postcard(k, hop, 5); err != nil {
			t.Fatal(err)
		}
	}
	path, ok, err := sys.LookupPath(k, 1)
	if err != nil || !ok {
		t.Fatalf("path lookup: %v %v", ok, err)
	}
	want := []uint32{1, 2, 3, 4, 5}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("hop %d = %d, want %d", i, path[i], want[i])
		}
	}
}

func TestAppendAndPoll(t *testing.T) {
	sys, _ := New(fullOptions())
	rep := sys.Reporter(1)
	for i := 0; i < 10; i++ {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(i))
		if err := rep.Append(2, e[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Flush(); err != nil { // 10 = 2 batches + partial
		t.Fatal(err)
	}
	p, err := sys.Poller(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := binary.BigEndian.Uint32(p.Poll()); got != uint32(i) {
			t.Errorf("poll %d = %d", i, got)
		}
	}
}

func TestIncrementAggregation(t *testing.T) {
	sys, _ := New(fullOptions())
	a, b := sys.Reporter(1), sys.Reporter(2)
	k := KeyFromUint64(5)
	a.Increment(k, 10, 2)
	b.Increment(k, 32, 2)
	got, err := sys.LookupCount(k, 2)
	if err != nil || got != 42 {
		t.Errorf("count = %d %v, want 42", got, err)
	}
}

func TestImmediateEvent(t *testing.T) {
	sys, _ := New(fullOptions())
	rep := sys.Reporter(1)
	if err := rep.KeyWriteImmediate(KeyFromUint64(1), []byte{1, 2, 3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if len(sys.Host().Events) != 1 {
		t.Error("no push notification")
	}
}

func TestStatsAndMemInstr(t *testing.T) {
	sys, _ := New(fullOptions())
	rep := sys.Reporter(1)
	for i := 0; i < 100; i++ {
		rep.KeyWrite(KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 2)
	}
	st := sys.Stats()
	if st.Reports != 100 || st.RDMAWrites != 200 {
		t.Errorf("stats = %+v", st)
	}
	if st.MemInstrPerReport != 2.0 {
		t.Errorf("mem instr/report = %v, want 2.0 (Fig. 8)", st.MemInstrPerReport)
	}
}

// TestStatsConcurrentReadsAgree: Stats only reads. Concurrent calls on a
// System and on an HACluster (each member's Stats under the cluster's
// read lock) all report Fig. 8's 2.0 for Key-Write N = 2, and so does a
// later call: no call attributes reports another call already counted.
func TestStatsConcurrentReadsAgree(t *testing.T) {
	sys, err := New(fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	hac, err := NewHACluster(4, 2, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]interface {
		Reporter(id uint32) *Reporter
		Stats() Stats
	}{"System": sys, "HACluster": hac} {
		rep := c.Reporter(1)
		for i := 0; i < 100; i++ {
			if err := rep.KeyWrite(KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 2); err != nil {
				t.Fatal(err)
			}
		}
		var got [8]float64
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = c.Stats().MemInstrPerReport
			}()
		}
		wg.Wait()
		for g, v := range got {
			if v != 2.0 {
				t.Errorf("%s: concurrent Stats %d read %v mem instr/report, want 2.0", name, g, v)
			}
		}
		if v := c.Stats().MemInstrPerReport; v != 2.0 {
			t.Errorf("%s: later Stats read %v mem instr/report, want 2.0", name, v)
		}
	}
}

func TestRateLimitedSystem(t *testing.T) {
	opts := fullOptions()
	opts.RateLimit = 1000
	sys, _ := New(opts)
	rep := sys.Reporter(1)
	for i := 0; i < 100; i++ {
		rep.KeyWrite(KeyFromUint64(uint64(i)), []byte{1, 2, 3, 4}, 1)
	}
	if sys.Stats().RateDropped == 0 {
		t.Error("rate limiter inactive")
	}
}
