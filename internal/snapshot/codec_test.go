package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dta/internal/collector"
	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/wire"
)

// fullSnapshot is a small image (40 KiB) with every section filled: the
// four stores (with some data in them), AppendHeads, the three tag
// arrays, TagBlockBytes and WALLSN.
func fullSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	return filled(fullHost(t), 1024)
}

// tinySnapshot is the same in under a kilobyte, for the tables that try
// every byte.
func tinySnapshot(t testing.TB) *Snapshot {
	t.Helper()
	kw := keywrite.Config{Slots: 16, DataSize: 4}
	ki := keyincrement.Config{Slots: 16}
	pc := postcarding.Config{Chunks: 4, Hops: 5, Values: []uint32{1, 2, 3, 4, 5}}
	ap := appendlist.Config{Lists: 2, EntriesPerList: 8, EntrySize: 4}
	h, err := collector.New(collector.Config{KeyWrite: &kw, KeyIncrement: &ki, Postcarding: &pc, Append: &ap})
	if err != nil {
		t.Fatal(err)
	}
	return filled(h, 16)
}

func filled(h *collector.Host, tagBlock int) *Snapshot {
	k := wire.KeyFromUint64(42)
	h.KeyWriteStore().Write(k, []byte{9, 8, 7, 6}, 2)
	h.KeyIncrementStore().Increment(k, 100, 2)
	h.PostcardingStore().Write(k, []uint32{1, 2, 3, 4, 5}, 5, 1)
	s := Capture(h)
	for i := range s.AppendBuf {
		s.AppendBuf[i] = byte(i)
	}
	s.AppendHeads = []uint64{7, 131}
	s.KeyWriteTags = []uint64{0, 3, 0, 5, 0, 0, 0, 1}
	s.KeyIncTags = []uint64{1}
	s.PostcardTags = []uint64{0, 2}
	s.TagBlockBytes = tagBlock
	s.WALLSN = 1 << 40
	return s
}

// multiBlockSnapshot has a Key-Write store of 2.5 MiB — two full blocks
// and a part of one — and a tag array beside it.
func multiBlockSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	cfg := keywrite.Config{Slots: 1 << 18, DataSize: 6}
	s := &Snapshot{KeyWrite: &cfg, KeyWriteBuf: make([]byte, cfg.BufferSize()), TagBlockBytes: 16, WALLSN: 9}
	for i := range s.KeyWriteBuf {
		s.KeyWriteBuf[i] = byte(i * 7)
	}
	s.KeyWriteTags = make([]uint64, len(s.KeyWriteBuf)/16) // 1.25 MiB of tags: two blocks
	for i := range s.KeyWriteTags {
		s.KeyWriteTags[i] = uint64(i)
	}
	return s
}

func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip encodes, decodes, and checks decode∘encode is a fixed point.
func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	img := encode(t, s)
	got, err := Read(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if again := encode(t, got); !bytes.Equal(again, img) {
		t.Errorf("re-encoding the decoded snapshot changed the image (%d → %d bytes)", len(img), len(again))
	}
	return got
}

// assertEqual compares field by field; nil and empty slices are the same
// thing on the wire.
func assertEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	wv, gv := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < wv.NumField(); i++ {
		w, g := wv.Field(i), gv.Field(i)
		if w.Kind() == reflect.Slice && w.Len() == 0 && g.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(w.Interface(), g.Interface()) {
			t.Errorf("%s differs after the round trip", wv.Type().Field(i).Name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	kwOnly := keywrite.Config{Slots: 64, DataSize: 4, ChecksumBits: 16}
	for name, s := range map[string]*Snapshot{
		"every section": fullSnapshot(t),
		"blocks":        multiBlockSnapshot(t),
		"one store":     {KeyWrite: &kwOnly, KeyWriteBuf: make([]byte, kwOnly.BufferSize())},
		"bare capture":  Capture(fullHost(t)),
		"nothing":       {},
	} {
		t.Run(name, func(t *testing.T) { assertEqual(t, s, roundTrip(t, s)) })
	}
}

// TestWriteRejectsWhatReadWould: one rule for section sizes, held on
// both sides — Write never produces an image Read refuses.
func TestWriteRejectsWhatReadWould(t *testing.T) {
	for name, mutate := range map[string]func(*Snapshot){
		"short store":         func(s *Snapshot) { s.KeyWriteBuf = s.KeyWriteBuf[1:] },
		"buffer, no config":   func(s *Snapshot) { s.KeyIncrement = nil },
		"too many heads":      func(s *Snapshot) { s.AppendHeads = make([]uint64, 3) },
		"too many tags":       func(s *Snapshot) { s.KeyIncTags = make([]uint64, 9) },
		"tags, no block size": func(s *Snapshot) { s.TagBlockBytes = 0 },
		"negative geometry":   func(s *Snapshot) { s.Append = &appendlist.Config{Lists: -1, EntriesPerList: 1, EntrySize: 1} },
		"overflowing geometry": func(s *Snapshot) {
			s.KeyWrite = &keywrite.Config{Slots: 1 << 62, DataSize: 4}
		},
	} {
		s := fullSnapshot(t)
		mutate(s)
		if err := s.Write(io.Discard); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}

// unsized hides a reader's Len, so Read cannot hold the header against
// the input's size and has to find the end the hard way.
type unsized struct{ io.Reader }

// TestReadTooShort: every proper prefix of an image is refused, whether
// or not the reader knows its length.
func TestReadTooShort(t *testing.T) {
	img := encode(t, tinySnapshot(t))
	for n := 0; n < len(img); n++ {
		if _, err := Read(bytes.NewReader(img[:n])); err == nil {
			t.Fatalf("sized prefix of %d/%d bytes accepted", n, len(img))
		}
		if _, err := Read(unsized{bytes.NewReader(img[:n])}); err == nil {
			t.Fatalf("unsized prefix of %d/%d bytes accepted", n, len(img))
		}
		if _, err := Verify(bytes.NewReader(img[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes verifies", n, len(img))
		}
	}
	// The block seams of a larger image.
	big := encode(t, multiBlockSnapshot(t))
	for _, n := range []int{blockSize, blockSize + 200, 2*blockSize + 300, len(big) - trailerLen, len(big) - 1} {
		if _, err := Read(unsized{bytes.NewReader(big[:n])}); err == nil {
			t.Errorf("prefix of %d/%d bytes accepted", n, len(big))
		}
	}
}

// TestReadFlipped: there is no byte of an image that can change
// unnoticed.
func TestReadFlipped(t *testing.T) {
	img := encode(t, tinySnapshot(t))
	for i := range img {
		img[i] ^= 0x40
		if _, err := Read(bytes.NewReader(img)); err == nil {
			t.Fatalf("flip at byte %d/%d accepted", i, len(img))
		}
		if _, err := Verify(bytes.NewReader(img)); err == nil {
			t.Fatalf("flip at byte %d/%d verifies", i, len(img))
		}
		img[i] ^= 0x40
	}
}

func TestReadTrailingGarbage(t *testing.T) {
	img := append(encode(t, fullSnapshot(t)), 0)
	if _, err := Read(bytes.NewReader(img)); err == nil {
		t.Error("sized reader: byte after the trailer accepted")
	}
	if _, err := Read(unsized{bytes.NewReader(img)}); err == nil || !strings.Contains(err.Error(), "after the trailer") {
		t.Errorf("unsized reader: byte after the trailer: %v", err)
	}
	if _, err := Verify(bytes.NewReader(img)); err == nil {
		t.Error("byte after the trailer verifies")
	}
	path := filepath.Join(t.TempDir(), "dta.snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load: byte after the trailer accepted")
	}
}

// restamp recomputes the header CRC, so that a changed header gets past
// it to the checks behind.
func restamp(img []byte) {
	if len(img) < preambleLen {
		return
	}
	end := preambleLen + int(binary.BigEndian.Uint32(img[12:]))
	if end < preambleLen || end+4 > len(img) {
		return
	}
	binary.BigEndian.PutUint32(img[end:], crc32.Checksum(img[:end], castagnoli))
}

func TestVersionErrors(t *testing.T) {
	// How an image written before format version 1 starts: the gob type
	// descriptor of Snapshot.
	old := "\xff\xf0\x7f\x03\x01\x01\bSnapshot\x01\xff\x80\x00\x01\x0e\x01\bKeyWrite\x01\xff\x82\x00\x01\vKey"
	if _, err := Read(strings.NewReader(old)); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "gob") {
		t.Errorf("gob image: %v", err)
	}
	img := encode(t, fullSnapshot(t))
	binary.BigEndian.PutUint32(img[8:], formatVersion+1)
	restamp(img)
	if _, err := Read(bytes.NewReader(img)); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("next version's image: %v", err)
	}
}

// promise is the head of an image — preamble, header, header CRC, all
// valid — that announces a Key-Increment store of the given slots, and
// then ends.
func promise(slots uint64) []byte {
	s := &Snapshot{KeyIncrement: &keyincrement.Config{Slots: slots}}
	head := binary.BigEndian.AppendUint32(bytes.Clone(magic[:]), formatVersion)
	head = s.appendHeader(append(head, 0, 0, 0, 0), [nSections]uint64{1: uint64(s.KeyIncrement.BufferSize())})
	binary.BigEndian.PutUint32(head[12:], uint32(len(head)-preambleLen))
	return binary.BigEndian.AppendUint32(head, crc32.Checksum(head, castagnoli))
}

// TestReadChecksThePromiseFirst: a header that describes 512 GiB over an
// input of a hundred bytes is refused before anything is allocated for
// it.
func TestReadChecksThePromiseFirst(t *testing.T) {
	img := promise(1 << 36)
	var err error
	got := allocated(func() { _, err = Read(bytes.NewReader(img)) })
	if err == nil || !strings.Contains(err.Error(), "the input holds") {
		t.Errorf("Read: %v", err)
	}
	if got > 64<<10 {
		t.Errorf("Read allocated %d bytes before refusing", got)
	}
	// Past what any store may be, it is refused whoever reads.
	if _, err := Read(unsized{bytes.NewReader(promise(1 << 40))}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("8 TiB store: %v", err)
	}
}

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadAllocatesOnce: decoding allocates the sections at their final
// size and one block of scratch at most — not a message buffer, not a
// doubling slice.
func TestReadAllocatesOnce(t *testing.T) {
	s := multiBlockSnapshot(t)
	img := encode(t, s)
	sections := uint64(len(s.KeyWriteBuf) + 8*len(s.KeyWriteTags))
	var err error
	got := allocated(func() { _, err = Read(bytes.NewReader(img)) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := sections + blockSize + 64<<10; got > limit {
		t.Errorf("Read allocated %d bytes for %d bytes of sections (limit %d)", got, sections, limit)
	}
	got = allocated(func() { err = s.Write(io.Discard) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(blockSize + 64<<10); got > limit {
		t.Errorf("Write allocated %d bytes (limit %d)", got, limit)
	}
	got = allocated(func() { _, err = Verify(bytes.NewReader(img)) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(blockSize + 64<<10); got > limit {
		t.Errorf("Verify allocated %d bytes (limit %d)", got, limit)
	}
}

// emptyLike is a destination laid out like s, every byte zero: what View
// gives of a fresh host.
func emptyLike(s *Snapshot) *Snapshot {
	d := &Snapshot{KeyWrite: s.KeyWrite, KeyIncrement: s.KeyIncrement, Postcarding: s.Postcarding, Append: s.Append}
	for i, b := range d.bufs() {
		*b = make([]byte, len(*s.bufs()[i]))
	}
	return d
}

// requireUntouched asserts ReadInto left a destination as emptyLike made
// it: every buffer zero, nothing of the image's metadata taken.
func requireUntouched(t *testing.T, what string, d *Snapshot) {
	t.Helper()
	for i, b := range d.bufs() {
		if n := len(*b) - bytes.Count(*b, []byte{0}); n != 0 {
			t.Errorf("%s: %d bytes of the %s store left written", what, n, sectionNames[i])
		}
	}
	if d.WALLSN != 0 || d.TagBlockBytes != 0 || d.KeyWriteTags != nil || d.AppendHeads != nil {
		t.Errorf("%s: image metadata taken", what)
	}
}

// TestReadIntoLandsInPlace: ReadInto puts an image's bytes in the
// destination's own buffers. One damaged or missing in the middle — a
// block after others have landed — leaves the destination zeroed again,
// as a fresh host was, for the caller's fallback; one laid out unlike the
// destination is refused before anything is written.
func TestReadIntoLandsInPlace(t *testing.T) {
	s := multiBlockSnapshot(t) // three Key-Write blocks, two tag blocks
	img := encode(t, s)
	d := emptyLike(s)
	buf := &d.KeyWriteBuf[0]
	if err := ReadInto(bytes.NewReader(img), int64(len(img)), d); err != nil {
		t.Fatal(err)
	}
	assertEqual(t, s, d)
	if &d.KeyWriteBuf[0] != buf {
		t.Error("ReadInto replaced the destination's buffer")
	}

	ck, err := Verify(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	kw := preambleLen + int(binary.BigEndian.Uint32(img[12:])) + 4 // first Key-Write block
	tags := kw + int(ck.Sections[0].Bytes) + 3*4                   // first tag block
	for name, at := range map[string]int{
		"middle store block": kw + blockSize + 4 + blockSize/2,
		"last store block":   kw + 2*(blockSize+4) + 10,
		"tag block":          tags + blockSize + 4 + 8,
		"trailer":            len(img) - 6,
	} {
		bad := bytes.Clone(img)
		bad[at] ^= 0x20
		d := emptyLike(s)
		if err := ReadInto(bytes.NewReader(bad), int64(len(bad)), d); err == nil {
			t.Errorf("flip in the %s: read", name)
		}
		requireUntouched(t, "flip in the "+name, d)
	}
	d = emptyLike(s)
	if err := ReadInto(bytes.NewReader(img[:kw+blockSize+4+100]), -1, d); err == nil {
		t.Error("image cut in its second block: read")
	}
	requireUntouched(t, "image cut in its second block", d)

	for name, mutate := range map[string]func(*Snapshot){
		"other slots": func(d *Snapshot) {
			d.KeyWrite = &keywrite.Config{Slots: s.KeyWrite.Slots / 2, DataSize: s.KeyWrite.DataSize}
			d.KeyWriteBuf = d.KeyWriteBuf[:d.KeyWrite.BufferSize()]
		},
		"other checksum": func(d *Snapshot) {
			d.KeyWrite = &keywrite.Config{Slots: s.KeyWrite.Slots, DataSize: s.KeyWrite.DataSize, ChecksumBits: 16}
		},
		"short buffer":    func(d *Snapshot) { d.KeyWriteBuf = d.KeyWriteBuf[1:] },
		"no such store":   func(d *Snapshot) { d.KeyWrite, d.KeyWriteBuf = nil, nil },
		"one store extra": func(d *Snapshot) { d.KeyIncrement, d.KeyIncBuf = &keyincrement.Config{Slots: 1}, make([]byte, 8) },
	} {
		d := emptyLike(s)
		mutate(d)
		if err := ReadInto(bytes.NewReader(img), int64(len(img)), d); !errors.Is(err, ErrGeometry) {
			t.Errorf("%s: %v, want ErrGeometry", name, err)
		}
		requireUntouched(t, name, d)
	}
}

// TestVerifyNamesTheSection: a flipped byte condemns its own section and
// no other; an image cut short condemns everything it did not reach.
func TestVerifyNamesTheSection(t *testing.T) {
	s := fullSnapshot(t)
	img := encode(t, s)
	ck, err := Verify(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if ck.WALLSN != s.WALLSN {
		t.Errorf("WALLSN = %d, want %d", ck.WALLSN, s.WALLSN)
	}
	start := sectionStarts(img, ck)
	for i, sec := range ck.Sections {
		if sec.Err != nil || sec.Bytes != s.sectionSizes()[i] {
			t.Fatalf("clean image: section %s = %+v", sec.Name, sec)
		}
		bad := bytes.Clone(img)
		bad[start[i]+int(sec.Bytes)/2] ^= 1
		got, err := Verify(bytes.NewReader(bad))
		if err == nil || got == nil {
			t.Fatalf("flip in %s: %v", sec.Name, err)
		}
		for j, other := range got.Sections {
			if (other.Err != nil) != (i == j) {
				t.Errorf("flip in %s: section %s verdict %v", sec.Name, other.Name, other.Err)
			}
		}
	}
	got, err := Verify(bytes.NewReader(img[:start[2]+10]))
	if err == nil || got == nil {
		t.Fatalf("cut image: %v", err)
	}
	for j, sec := range got.Sections {
		if (sec.Err != nil) != (j >= 2) {
			t.Errorf("image cut in section 2: section %s verdict %v", sec.Name, sec.Err)
		}
	}
}

// sectionStarts is each section's offset in the image (small images: one
// block a section).
func sectionStarts(img []byte, ck *Check) (start [nSections]int) {
	off := preambleLen + int(binary.BigEndian.Uint32(img[12:])) + 4
	for i, sec := range ck.Sections {
		start[i] = off
		if sec.Bytes > 0 {
			off += int(sec.Bytes) + 4
		}
	}
	return start
}

func TestViewAliases(t *testing.T) {
	h := fullHost(t)
	k := wire.KeyFromUint64(1)
	h.KeyWriteStore().Write(k, []byte{1, 1, 1, 1}, 1)
	view := View(h)
	h.KeyWriteStore().Write(k, []byte{2, 2, 2, 2}, 1)
	st, _ := view.KeyWriteStore()
	if res, _ := st.Query(k, 1, 1); !res.Found || res.Data[0] != 2 {
		t.Errorf("view does not follow the live store: %+v", res)
	}
	live := [4][]byte{h.KeyWriteStore().Buffer(), h.KeyIncrementStore().Buffer(), h.PostcardingStore().Buffer(), h.AppendStore().Buffer()}
	copied := Capture(h)
	for i, b := range view.bufs() {
		if &(*b)[0] != &live[i][0] {
			t.Errorf("View copied the %s store", sectionNames[i])
		}
		if &(*copied.bufs()[i])[0] == &live[i][0] {
			t.Errorf("Capture aliases the %s store", sectionNames[i])
		}
	}
	assertEqual(t, copied, view)
}

// failingFile is the temporary file of an atomic write on a disk that
// fails: at the limit-th written byte, at Sync, or at Close.
type failingFile struct {
	*os.File
	writeLimit         int
	syncErr, closeErr  error
	synced, closedOnce bool
}

var errDisk = errors.New("disk says no")

func (f *failingFile) Write(p []byte) (int, error) {
	if f.writeLimit >= 0 && len(p) > f.writeLimit {
		n, _ := f.File.Write(p[:f.writeLimit])
		f.writeLimit = 0
		return n, errDisk
	}
	if f.writeLimit >= 0 {
		f.writeLimit -= len(p)
	}
	return f.File.Write(p)
}

func (f *failingFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	f.synced = true
	return f.File.Sync()
}

func (f *failingFile) Close() error {
	err := f.File.Close()
	if !f.closedOnce && f.closeErr != nil {
		err = f.closeErr
	}
	f.closedOnce = true
	return err
}

// TestSaveReportsWhatTheDiskDid: a write, fsync or close that fails
// fails the Save, leaves the file that was there as it was and no
// temporary file behind; a Save that returns nil fsynced the bytes before
// the name pointed at them.
func TestSaveReportsWhatTheDiskDid(t *testing.T) {
	snap := fullSnapshot(t)
	size := len(encode(t, snap))
	for name, disk := range map[string]*failingFile{
		"first write": {writeLimit: 0},
		"mid image":   {writeLimit: size / 2},
		"last byte":   {writeLimit: size - 1},
		"fsync":       {writeLimit: -1, syncErr: errDisk},
		"close":       {writeLimit: -1, closeErr: errDisk},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "dta.snap")
		if err := os.WriteFile(path, []byte("the old file"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := writeFileAtomic(path, "", snap.Write, func(f *os.File) syncFile { disk.File = f; return disk })
		if !errors.Is(err, errDisk) {
			t.Errorf("%s fails: Save returned %v", name, err)
		}
		if b, _ := os.ReadFile(path); string(b) != "the old file" {
			t.Errorf("%s fails: the old file is gone", name)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Errorf("%s fails: %d files left in the directory", name, len(ents))
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "dta.snap")
	disk := &failingFile{writeLimit: -1}
	if err := writeFileAtomic(path, "", snap.Write, func(f *os.File) syncFile { disk.File = f; return disk }); err != nil {
		t.Fatal(err)
	}
	if !disk.synced || !disk.closedOnce {
		t.Errorf("Save returned without fsync (%v) or close (%v)", disk.synced, disk.closedOnce)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, snap, got)
}

// TestWriteFileAtomicKeepsAGeneration: with keepAs the file that was
// there moves aside instead of being replaced.
func TestWriteFileAtomicKeepsAGeneration(t *testing.T) {
	dir := t.TempDir()
	path, prev := filepath.Join(dir, "image"), filepath.Join(dir, "image.prev")
	write := func(s string) {
		t.Helper()
		if err := WriteFileAtomic(path, prev, func(w io.Writer) error { _, err := io.WriteString(w, s); return err }); err != nil {
			t.Fatal(err)
		}
	}
	read := func(p string) string { b, _ := os.ReadFile(p); return string(b) }
	write("one")
	if read(path) != "one" || read(prev) != "" {
		t.Fatalf("after the first write: %q, %q", read(path), read(prev))
	}
	write("two")
	write("three")
	if read(path) != "three" || read(prev) != "two" {
		t.Fatalf("after the third write: %q, %q", read(path), read(prev))
	}
}

// FuzzSnapshotRead: whatever the bytes, Read, ReadInto and Verify return
// — no panic — and Read allocates no more than the input is long plus a
// block, because the header is held against the input's size before the
// first buffer exists. ReadInto, into stores laid out as the valid seed's,
// accepts what Read accepts of that layout and lands the same bytes; what
// it refuses it leaves zero. Every input is also tried with its header
// CRC recomputed, so that mutated geometry reaches the checks behind the
// CRC.
func FuzzSnapshotRead(f *testing.F) {
	tiny := tinySnapshot(f)
	valid := encode(f, tiny)
	f.Add(valid)
	f.Add(encode(f, &Snapshot{}))
	for _, at := range []int{9, 14, 20, 30, 44, 60, 100, 180, 240} { // version, length, header fields
		m := bytes.Clone(valid)
		m[at] ^= 0x10
		restamp(m)
		f.Add(m)
	}
	f.Add(promise(1 << 36))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, restamped(data)} {
			var s *Snapshot
			var err error
			got := allocated(func() { s, err = Read(bytes.NewReader(img)) })
			if limit := uint64(len(img)) + blockSize + 64<<10; got > limit {
				t.Errorf("Read allocated %d bytes over an input of %d", got, len(img))
			}
			ck, verr := Verify(bytes.NewReader(img))
			if (err == nil) != (verr == nil) {
				t.Errorf("Read says %v, Verify says %v", err, verr)
			}
			d := emptyLike(tiny)
			switch ierr := ReadInto(bytes.NewReader(img), int64(len(img)), d); {
			case ierr != nil:
				requireUntouched(t, "refused in place", d)
			case err != nil:
				t.Errorf("Read says %v, ReadInto accepts", err)
			default:
				assertEqual(t, s, d)
			}
			if err == nil {
				if ck.WALLSN != s.WALLSN {
					t.Errorf("Verify reads WALLSN %d, Read %d", ck.WALLSN, s.WALLSN)
				}
				var again bytes.Buffer
				if werr := s.Write(&again); werr != nil || !bytes.Equal(again.Bytes(), img) {
					t.Errorf("an accepted image does not re-encode to itself (%v)", werr)
				}
			}
		}
	})
}

func restamped(data []byte) []byte {
	out := bytes.Clone(data)
	restamp(out)
	return out
}
