package snapshot

import (
	"bytes"
	"path/filepath"
	"testing"

	"dta/internal/collector"
	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/wire"
)

func fullHost(t testing.TB) *collector.Host {
	t.Helper()
	kw := keywrite.Config{Slots: 1 << 10, DataSize: 4}
	ki := keyincrement.Config{Slots: 1 << 10}
	pc := postcarding.Config{Chunks: 1 << 8, Hops: 5, Values: []uint32{1, 2, 3, 4, 5}}
	ap := appendlist.Config{Lists: 2, EntriesPerList: 64, EntrySize: 4}
	h, err := collector.New(collector.Config{
		KeyWrite: &kw, KeyIncrement: &ki, Postcarding: &pc, Append: &ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCaptureRoundTrip(t *testing.T) {
	h := fullHost(t)
	k := wire.KeyFromUint64(42)
	h.KeyWriteStore().Write(k, []byte{9, 8, 7, 6}, 2)
	h.KeyIncrementStore().Increment(k, 100, 2)
	h.PostcardingStore().Write(k, []uint32{1, 2, 3, 4, 5}, 5, 1)

	snap := Capture(h)
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	kwst, err := loaded.KeyWriteStore()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := kwst.Query(k, 2, 1)
	if !res.Found || res.Data[0] != 9 {
		t.Errorf("key-write after round trip: %+v", res)
	}
	kist, err := loaded.KeyIncrementStore()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := kist.Query(k, 2); v != 100 {
		t.Errorf("key-increment after round trip: %d", v)
	}
	pcst, err := loaded.PostcardingStore()
	if err != nil {
		t.Fatal(err)
	}
	pres, _ := pcst.Query(k, 1)
	if !pres.Found || len(pres.Values) != 5 {
		t.Errorf("postcarding after round trip: %+v", pres)
	}
	if _, err := loaded.AppendStore(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	h := fullHost(t)
	k := wire.KeyFromUint64(1)
	h.KeyWriteStore().Write(k, []byte{1, 1, 1, 1}, 1)
	snap := Capture(h)
	// Mutate the live store; the snapshot must not change.
	h.KeyWriteStore().Write(k, []byte{2, 2, 2, 2}, 1)
	st, _ := snap.KeyWriteStore()
	res, _ := st.Query(k, 1, 1)
	if !res.Found || res.Data[0] != 1 {
		t.Errorf("snapshot mutated with live store: %+v", res)
	}
}

func TestSaveLoadFile(t *testing.T) {
	h := fullHost(t)
	h.KeyWriteStore().Write(wire.KeyFromUint64(5), []byte{5, 5, 5, 5}, 1)
	path := filepath.Join(t.TempDir(), "dta.snap")
	if err := Capture(h).Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := loaded.KeyWriteStore()
	res, _ := st.Query(wire.KeyFromUint64(5), 1, 1)
	if !res.Found {
		t.Error("file round trip lost data")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

func TestMissingStoresRejected(t *testing.T) {
	kw := keywrite.Config{Slots: 64, DataSize: 4}
	h, _ := collector.New(collector.Config{KeyWrite: &kw})
	snap := Capture(h)
	if _, err := snap.PostcardingStore(); err == nil {
		t.Error("postcarding view over KW-only snapshot")
	}
	if _, err := snap.AppendStore(); err == nil {
		t.Error("append view over KW-only snapshot")
	}
	if _, err := snap.KeyIncrementStore(); err == nil {
		t.Error("key-increment view over KW-only snapshot")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReplicationMetadataRoundTrip pins the optional HA fields — Append
// head counts and dirty-epoch tags — through serialisation: a resync
// driven from a loaded snapshot must see exactly what the capturing
// cluster attached.
func TestReplicationMetadataRoundTrip(t *testing.T) {
	h := fullHost(t)
	snap := Capture(h)
	snap.AppendHeads = []uint64{7, 131}
	snap.KeyWriteTags = []uint64{0, 3, 0, 5}
	snap.KeyIncTags = []uint64{1}
	snap.PostcardTags = []uint64{0, 2}
	snap.TagBlockBytes = 1024

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.AppendHeads; len(got) != 2 || got[0] != 7 || got[1] != 131 {
		t.Errorf("AppendHeads = %v", got)
	}
	if got := loaded.KeyWriteTags; len(got) != 4 || got[1] != 3 || got[3] != 5 {
		t.Errorf("KeyWriteTags = %v", got)
	}
	if loaded.TagBlockBytes != 1024 {
		t.Errorf("TagBlockBytes = %d", loaded.TagBlockBytes)
	}
	// Plain captures leave the metadata nil: full replay.
	bare := Capture(h)
	if bare.AppendHeads != nil || bare.KeyWriteTags != nil || bare.TagBlockBytes != 0 {
		t.Errorf("bare capture carries replication metadata: %+v", bare)
	}
}
