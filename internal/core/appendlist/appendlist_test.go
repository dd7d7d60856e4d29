package appendlist

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Lists: 0, EntriesPerList: 16, EntrySize: 4},
		{Lists: MaxLists + 1, EntriesPerList: 16, EntrySize: 4},
		{Lists: 1, EntriesPerList: 0, EntrySize: 4},
		{Lists: 1, EntriesPerList: 16, EntrySize: 0},
	}
	for _, c := range bad {
		if _, err := NewStore(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestBatcherValidation(t *testing.T) {
	cfg := Config{Lists: 2, EntriesPerList: 16, EntrySize: 4}
	if _, err := NewBatcher(cfg, 0); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := NewBatcher(cfg, MaxBatch+1); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := NewBatcher(cfg, 5); err == nil {
		t.Error("non-divisor batch accepted")
	}
}

func TestAppendFlushEveryBatch(t *testing.T) {
	cfg := Config{Lists: 1, EntriesPerList: 64, EntrySize: 4}
	b, err := NewBatcher(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Flush.Data aliases the stash, so each flush is verified at the
	// moment it is produced, exactly as the translator consumes it.
	nf := 0
	for i := 0; i < 12; i++ {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(i))
		f, err := b.Append(0, e[:])
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			continue
		}
		if f.Index != nf*4 || f.Entries != 4 {
			t.Errorf("flush %d: %+v", nf, f)
		}
		for j := 0; j < 4; j++ {
			got := binary.BigEndian.Uint32(f.Data[j*4:])
			if got != uint32(nf*4+j) {
				t.Errorf("flush %d entry %d = %d", nf, j, got)
			}
		}
		nf++
	}
	if nf != 3 {
		t.Fatalf("flushes = %d, want 3", nf)
	}
	if b.Stats.Entries != 12 || b.Stats.Flushes != 3 {
		t.Errorf("stats = %+v", b.Stats)
	}
}

func TestAppendNoBatching(t *testing.T) {
	cfg := Config{Lists: 1, EntriesPerList: 8, EntrySize: 4}
	b, _ := NewBatcher(cfg, 1)
	f, err := b.Append(0, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || f.Entries != 1 {
		t.Fatalf("batch=1 did not flush immediately: %+v", f)
	}
}

func TestHeadWrapsAround(t *testing.T) {
	cfg := Config{Lists: 1, EntriesPerList: 8, EntrySize: 4}
	b, _ := NewBatcher(cfg, 4)
	for i := 0; i < 8; i++ {
		b.Append(0, []byte{byte(i)})
	}
	if b.heads[0] != 0 {
		t.Errorf("head after full ring = %d, want 0 (wrapped)", b.heads[0])
	}
}

func TestApplyAndPoll(t *testing.T) {
	cfg := Config{Lists: 2, EntriesPerList: 16, EntrySize: 4}
	s, _ := NewStore(cfg)
	b, _ := NewBatcher(cfg, 4)
	for i := 0; i < 8; i++ {
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], uint32(100+i))
		if f, _ := b.Append(1, e[:]); f != nil {
			s.Apply(f)
		}
	}
	p, err := s.NewPoller(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got := binary.BigEndian.Uint32(p.Poll())
		if got != uint32(100+i) {
			t.Errorf("poll %d = %d, want %d", i, got, 100+i)
		}
	}
	if p.Tail() != 8 {
		t.Errorf("tail = %d", p.Tail())
	}
	// List 0 untouched.
	p0, _ := s.NewPoller(0)
	if v := binary.BigEndian.Uint32(p0.Poll()); v != 0 {
		t.Errorf("list 0 contaminated: %d", v)
	}
}

func TestPollerWrapsAround(t *testing.T) {
	cfg := Config{Lists: 1, EntriesPerList: 4, EntrySize: 1}
	s, _ := NewStore(cfg)
	p, _ := s.NewPoller(0)
	for i := 0; i < 9; i++ {
		p.Poll()
	}
	if p.Tail() != 1 {
		t.Errorf("tail after 9 polls of 4-ring = %d, want 1", p.Tail())
	}
}

func TestShortEntryZeroPadded(t *testing.T) {
	cfg := Config{Lists: 1, EntriesPerList: 4, EntrySize: 8}
	s, _ := NewStore(cfg)
	b, _ := NewBatcher(cfg, 1)
	// Fill underlying memory with garbage first.
	for i := range s.Buffer() {
		s.Buffer()[i] = 0xee
	}
	f, _ := b.Append(0, []byte{0xaa, 0xbb})
	s.Apply(f)
	want := []byte{0xaa, 0xbb, 0, 0, 0, 0, 0, 0}
	if got := s.Entry(0, 0); !bytes.Equal(got, want) {
		t.Errorf("entry = %v, want %v", got, want)
	}
}

func TestFlushPartial(t *testing.T) {
	cfg := Config{Lists: 1, EntriesPerList: 16, EntrySize: 4}
	s, _ := NewStore(cfg)
	b, _ := NewBatcher(cfg, 8)
	for i := 0; i < 3; i++ {
		b.Append(0, []byte{byte(i + 1)})
	}
	if b.fill[0] != 3 {
		t.Fatalf("pending = %d", b.fill[0])
	}
	f := b.FlushPartial(0)
	if f == nil || f.Entries != 3 || f.Index != 0 {
		t.Fatalf("partial flush = %+v", f)
	}
	s.Apply(f)
	if b.heads[0] != 3 {
		t.Errorf("head = %d, want 3", b.heads[0])
	}
	if b.FlushPartial(0) != nil {
		t.Error("second partial flush not nil")
	}
	if s.Entry(0, 2)[0] != 3 {
		t.Error("partial data not applied")
	}
}

func TestApplyWrapSplitAfterPartialFlush(t *testing.T) {
	// A partial flush desynchronises heads from batch boundaries; a later
	// full batch may straddle the ring end and must split correctly.
	cfg := Config{Lists: 1, EntriesPerList: 8, EntrySize: 1}
	s, _ := NewStore(cfg)
	b, _ := NewBatcher(cfg, 4)
	b.Append(0, []byte{1})
	s.Apply(b.FlushPartial(0)) // head = 1
	// Next full batch lands at 1..4, then 5..8 → wraps at 8.
	for i := 0; i < 4; i++ {
		if f, _ := b.Append(0, []byte{byte(10 + i)}); f != nil {
			s.Apply(f)
		}
	}
	for i := 0; i < 4; i++ {
		if f, _ := b.Append(0, []byte{byte(20 + i)}); f != nil {
			s.Apply(f)
		}
	}
	// Entries 5,6,7 then wrap to 0.
	if s.Entry(0, 5)[0] != 20 || s.Entry(0, 7)[0] != 22 {
		t.Errorf("pre-wrap entries: %v", s.Buffer())
	}
	if s.Entry(0, 0)[0] != 23 {
		t.Errorf("wrapped entry = %d, want 23", s.Entry(0, 0)[0])
	}
}

func TestAppendBadList(t *testing.T) {
	cfg := Config{Lists: 2, EntriesPerList: 16, EntrySize: 4}
	b, _ := NewBatcher(cfg, 4)
	if _, err := b.Append(2, []byte{1}); err == nil {
		t.Error("out-of-range list accepted")
	}
	if _, err := b.Append(-1, []byte{1}); err == nil {
		t.Error("negative list accepted")
	}
	s, _ := NewStore(cfg)
	if _, err := s.NewPoller(9); err == nil {
		t.Error("out-of-range poller accepted")
	}
}

func TestManyListsIndependent(t *testing.T) {
	cfg := Config{Lists: 128, EntriesPerList: 8, EntrySize: 4}
	s, _ := NewStore(cfg)
	b, _ := NewBatcher(cfg, 2)
	for l := 0; l < 128; l++ {
		for i := 0; i < 2; i++ {
			var e [4]byte
			binary.BigEndian.PutUint32(e[:], uint32(l*10+i))
			if f, _ := b.Append(l, e[:]); f != nil {
				s.Apply(f)
			}
		}
	}
	for l := 0; l < 128; l++ {
		p, _ := s.NewPoller(l)
		if got := binary.BigEndian.Uint32(p.Poll()); got != uint32(l*10) {
			t.Fatalf("list %d first entry = %d", l, got)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	cfg := Config{Lists: 4, EntriesPerList: 64, EntrySize: 8}
	f := func(list uint8, vals []uint64) bool {
		s, _ := NewStore(cfg)
		b, _ := NewBatcher(cfg, 4)
		l := int(list % 4)
		if len(vals) > 64 {
			vals = vals[:64]
		}
		for _, v := range vals {
			var e [8]byte
			binary.BigEndian.PutUint64(e[:], v)
			if fl, err := b.Append(l, e[:]); err != nil {
				return false
			} else if fl != nil {
				s.Apply(fl)
			}
		}
		if fl := b.FlushPartial(l); fl != nil {
			s.Apply(fl)
		}
		p, _ := s.NewPoller(l)
		for _, v := range vals {
			if binary.BigEndian.Uint64(p.Poll()) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppendBatch16(b *testing.B) {
	cfg := Config{Lists: 8, EntriesPerList: 1 << 16, EntrySize: 4}
	s, _ := NewStore(cfg)
	bt, _ := NewBatcher(cfg, 16)
	e := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f, _ := bt.Append(i&7, e); f != nil {
			s.Apply(f)
		}
	}
}

func BenchmarkPoll(b *testing.B) {
	cfg := Config{Lists: 1, EntriesPerList: 1 << 16, EntrySize: 4}
	s, _ := NewStore(cfg)
	p, _ := s.NewPoller(0)
	b.ReportAllocs()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink += p.Poll()[0]
	}
	_ = sink
}

func TestWrittenTracksFlushedEntries(t *testing.T) {
	cfg := Config{Lists: 2, EntriesPerList: 16, EntrySize: 4}
	bt, err := NewBatcher(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := []byte{1, 2, 3, 4}
	for i := 0; i < 6; i++ { // one full batch + 2 stashed
		if _, err := bt.Append(0, e); err != nil {
			t.Fatal(err)
		}
	}
	// Stashed entries are not in collector memory, so not counted.
	if got := bt.Written(0); got != 4 {
		t.Errorf("written = %d after 6 appends (batch 4), want 4", got)
	}
	if bt.FlushPartial(0) == nil {
		t.Fatal("no partial flush for 2 stashed entries")
	}
	if got := bt.Written(0); got != 6 {
		t.Errorf("written = %d after partial flush, want 6", got)
	}
	// Cumulative: wraps in the ring never reset the count.
	for i := 0; i < 32; i++ {
		if _, err := bt.Append(0, e); err != nil {
			t.Fatal(err)
		}
	}
	if got, head := bt.Written(0), bt.heads[0]; got != 38 || head != int(got%16) {
		t.Errorf("written = %d head = %d, want 38 and %d", got, head, got%16)
	}
	counts := bt.WrittenCounts(nil)
	if len(counts) != 2 || counts[0] != 38 || counts[1] != 0 {
		t.Errorf("WrittenCounts = %v", counts)
	}
}

func TestSyncList(t *testing.T) {
	cfg := Config{Lists: 1, EntriesPerList: 16, EntrySize: 4}
	bt, err := NewBatcher(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.SyncList(0, 37); err != nil {
		t.Fatal(err)
	}
	if bt.Written(0) != 37 || bt.heads[0] != 5 {
		t.Errorf("after sync: written=%d head=%d, want 37/5", bt.Written(0), bt.heads[0])
	}
	if err := bt.SyncList(1, 0); err == nil {
		t.Error("out-of-range list accepted")
	}
	// Stashed entries block a sync: the stash was staged for another head.
	if _, err := bt.Append(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := bt.SyncList(0, 40); err == nil {
		t.Error("sync over stashed entries accepted")
	}
}
