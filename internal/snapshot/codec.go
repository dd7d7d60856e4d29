package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
)

// The image format, version 1. Integers are big-endian; every CRC is
// CRC-32C.
//
//	preamble   magic "DTASNAP\0" · version u32 · header length u32
//	header     WALLSN · TagBlockBytes · store bitmap · the configured
//	           stores' geometries · section table (8 byte lengths)
//	           — u64 each, Postcarding values u32 each
//	header CRC over preamble + header
//	sections   in table order: the four store buffers, AppendHeads and the
//	           three tag arrays (8 bytes an element); each cut into blocks
//	           of at most 1 MiB, each block followed by its CRC
//	trailer    magic "DTASEND\0" · sum of the section lengths u64 · CRC of
//	           those 16 bytes; nothing may follow it
//
// Both directions are one pass whose working memory does not depend on
// the image size: Write hands store memory to the writer block by block,
// Read lands each block in its final place and checks it there. Only the
// uint64 arrays pass through scratch, at most one block of it.
const (
	formatVersion = 1
	blockSize     = 1 << 20
	maxHeaderLen  = blockSize
	preambleLen   = 16
	trailerLen    = 20
	nSections     = 8
	maxStoreBytes = 1 << 40
)

var (
	magic      = [8]byte{'D', 'T', 'A', 'S', 'N', 'A', 'P', 0}
	endMagic   = [8]byte{'D', 'T', 'A', 'S', 'E', 'N', 'D', 0}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	sectionNames = [nSections]string{
		"keywrite", "keyincrement", "postcarding", "append",
		"append-heads", "keywrite-tags", "keyincrement-tags", "postcarding-tags",
	}
)

// ErrVersion reports an image this build cannot read: one written in
// another format version, or a file that does not start with the image
// magic at all — which is what the gob images of builds before version 1
// look like. There is no converter; take a new snapshot or checkpoint.
var ErrVersion = errors.New("snapshot: unreadable image format")

// ErrGeometry reports an image laid out unlike the stores ReadInto was
// to land it in.
var ErrGeometry = errors.New("snapshot: image laid out unlike its destination")

// errCRC marks damage that leaves the reader aligned (the block was all
// there, its bytes were wrong), unlike an input that ended or failed.
var errCRC = errors.New("CRC mismatch")

// bufs and arrays are the image's sections in file order.
func (s *Snapshot) bufs() [4]*[]byte {
	return [4]*[]byte{&s.KeyWriteBuf, &s.KeyIncBuf, &s.PostcardBuf, &s.AppendBuf}
}

func (s *Snapshot) arrays() [4]*[]uint64 {
	return [4]*[]uint64{&s.AppendHeads, &s.KeyWriteTags, &s.KeyIncTags, &s.PostcardTags}
}

// sectionSizes is the section table of the snapshot as it stands.
func (s *Snapshot) sectionSizes() (sz [nSections]uint64) {
	for i, b := range s.bufs() {
		sz[i] = uint64(len(*b))
	}
	for i, a := range s.arrays() {
		sz[4+i] = 8 * uint64(len(*a))
	}
	return sz
}

// checkSizes holds a section table — a header's, or the lengths of the
// slices about to be written — against the configs beside it: a store
// buffer is exactly its config's BufferSize() (empty without a config),
// AppendHeads has at most one count per list and a tag array at most one
// tag per block of its store. Read calls it before it allocates anything.
func (s *Snapshot) checkSizes(sz [nSections]uint64) error {
	// want[i] is store i's BufferSize(), asked for only once the factors
	// behind it — which may be untrusted bytes — are known to stay under
	// maxStoreBytes, so no size below can overflow or panic in make.
	var want [4]uint64
	var err error
	size := func(i int, bufferSize func() int, factors ...uint64) {
		p := uint64(1)
		for _, f := range factors {
			hi, lo := bits.Mul64(p, f)
			if hi != 0 || lo > maxStoreBytes {
				err = fmt.Errorf("snapshot: %s geometry exceeds %d bytes", sectionNames[i], uint64(maxStoreBytes))
				return
			}
			p = lo
		}
		want[i] = uint64(bufferSize())
	}
	var lists uint64
	if c := s.KeyWrite; c != nil {
		size(0, c.BufferSize, c.Slots, uint64(c.SlotSize()))
	}
	if c := s.KeyIncrement; c != nil {
		size(1, c.BufferSize, c.Slots, keyincrement.CounterSize)
	}
	if c := s.Postcarding; c != nil {
		size(2, c.BufferSize, c.Chunks, uint64(c.ChunkBytes()))
	}
	if c := s.Append; c != nil {
		size(3, c.BufferSize, uint64(c.Lists), uint64(c.EntriesPerList), uint64(c.EntrySize))
		lists = uint64(c.Lists)
	}
	if err != nil {
		return err
	}
	for i, n := range want {
		if sz[i] != n {
			return fmt.Errorf("snapshot: %s section holds %d bytes, its config calls for %d", sectionNames[i], sz[i], n)
		}
	}
	limit := [4]uint64{lists}
	if tb := uint64(s.TagBlockBytes); s.TagBlockBytes > 0 {
		for i, n := range want[:3] {
			limit[1+i] = (n + tb - 1) / tb
		}
	}
	for i, lim := range limit {
		if n := sz[4+i]; n%8 != 0 || n/8 > lim {
			return fmt.Errorf("snapshot: %s section holds %d bytes, what it describes has room for %d entries", sectionNames[4+i], n, lim)
		}
	}
	return nil
}

// appendHeader encodes the header (without preamble or CRC).
func (s *Snapshot) appendHeader(b []byte, sz [nSections]uint64) []byte {
	u64 := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.BigEndian.AppendUint64(b, v)
		}
	}
	var stores uint64
	for i, present := range [4]bool{s.KeyWrite != nil, s.KeyIncrement != nil, s.Postcarding != nil, s.Append != nil} {
		if present {
			stores |= 1 << i
		}
	}
	u64(s.WALLSN, uint64(s.TagBlockBytes), stores)
	if c := s.KeyWrite; c != nil {
		u64(c.Slots, uint64(c.DataSize), uint64(c.ChecksumBits))
	}
	if c := s.KeyIncrement; c != nil {
		u64(c.Slots)
	}
	if c := s.Postcarding; c != nil {
		u64(c.Chunks, uint64(c.Hops), uint64(c.SlotBits), uint64(len(c.Values)))
		for _, v := range c.Values {
			b = binary.BigEndian.AppendUint32(b, v)
		}
	}
	if c := s.Append; c != nil {
		u64(uint64(c.Lists), uint64(c.EntriesPerList), uint64(c.EntrySize))
	}
	u64(sz[:]...)
	return b
}

// layout is the part of a header that fixes where store bytes go.
func (s *Snapshot) layout(sz [nSections]uint64) []byte {
	stores := Snapshot{KeyWrite: s.KeyWrite, KeyIncrement: s.KeyIncrement, Postcarding: s.Postcarding, Append: s.Append}
	return stores.appendHeader(nil, [nSections]uint64{sz[0], sz[1], sz[2], sz[3]})
}

// headerReader takes the fields back off; one that is missing or out of
// range sets bad and reads as zero.
type headerReader struct {
	b   []byte
	bad bool
}

func (h *headerReader) u64() uint64 {
	if len(h.b) < 8 {
		h.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(h.b)
	h.b = h.b[8:]
	return v
}

// int reads a geometry field; none comes near 2^31.
func (h *headerReader) int() int {
	v := h.u64()
	if v > math.MaxInt32 {
		h.bad = true
		return 0
	}
	return int(v)
}

// Write serialises the snapshot, streaming: the store buffers go to w
// block by block from where they are (a View's from store memory
// itself), so writing an image costs no memory that grows with it. It
// makes two writes per block: hand it a file or a buffer.
func (s *Snapshot) Write(w io.Writer) error {
	sz := s.sectionSizes()
	if err := s.checkSizes(sz); err != nil {
		return err
	}
	head := append(make([]byte, 0, 512), magic[:]...)
	head = binary.BigEndian.AppendUint32(head, formatVersion)
	head = s.appendHeader(append(head, 0, 0, 0, 0), sz)
	hlen := len(head) - preambleLen
	if hlen > maxHeaderLen {
		return fmt.Errorf("snapshot: header of %d bytes exceeds %d", hlen, maxHeaderLen)
	}
	binary.BigEndian.PutUint32(head[12:], uint32(hlen))
	if err := writeBlock(w, head); err != nil {
		return err
	}
	var payload uint64
	for _, b := range s.bufs() {
		for buf := *b; len(buf) > 0; {
			n := min(len(buf), blockSize)
			if err := writeBlock(w, buf[:n]); err != nil {
				return err
			}
			buf = buf[n:]
		}
		payload += uint64(len(*b))
	}
	var scratch []byte
	for _, a := range s.arrays() {
		for arr := *a; len(arr) > 0; {
			n := min(len(arr), blockSize/8)
			if cap(scratch) < 8*n {
				scratch = make([]byte, 0, 8*n)
			}
			blk := scratch[:0]
			for _, v := range arr[:n] {
				blk = binary.BigEndian.AppendUint64(blk, v)
			}
			if err := writeBlock(w, blk); err != nil {
				return err
			}
			arr = arr[n:]
		}
		payload += 8 * uint64(len(*a))
	}
	return writeBlock(w, binary.BigEndian.AppendUint64(endMagic[:], payload))
}

// writeBlock writes b and then its CRC.
func writeBlock(w io.Writer, b []byte) error {
	if _, err := w.Write(b); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(b, castagnoli))
	_, err := w.Write(sum[:])
	return err
}

// readBlock fills b and checks the CRC that follows it.
func readBlock(r io.Reader, b []byte) error {
	var sum [4]byte
	if _, err := io.ReadFull(r, b); err != nil {
		return truncated(err)
	}
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return truncated(err)
	}
	if got, want := crc32.Checksum(b, castagnoli), binary.BigEndian.Uint32(sum[:]); got != want {
		return fmt.Errorf("%w (%08x != %08x)", errCRC, got, want)
	}
	return nil
}

// truncated names a short read for what it means here.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errors.New("image truncated")
	}
	return err
}

// readHeader reads and verifies preamble and header, and holds the
// section table against the configs and against avail, the bytes r can
// still deliver (negative: unknown). The snapshot it returns has configs
// and scalars set and every buffer nil.
func readHeader(r io.Reader, avail int64) (*Snapshot, [nSections]uint64, error) {
	var sz [nSections]uint64
	pre := make([]byte, preambleLen, 512)
	if _, err := io.ReadFull(r, pre); err != nil {
		return nil, sz, fmt.Errorf("snapshot: preamble: %w", truncated(err))
	}
	if [8]byte(pre[:8]) != magic {
		return nil, sz, fmt.Errorf("%w: no image magic (not a snapshot, or a gob image from before format version %d)", ErrVersion, formatVersion)
	}
	if v := binary.BigEndian.Uint32(pre[8:]); v != formatVersion {
		return nil, sz, fmt.Errorf("%w: image is version %d, this build reads version %d", ErrVersion, v, formatVersion)
	}
	hlen := int(binary.BigEndian.Uint32(pre[12:]))
	if hlen > maxHeaderLen || (avail >= 0 && int64(hlen) > avail) {
		return nil, sz, fmt.Errorf("snapshot: header length %d out of range", hlen)
	}
	head := append(pre, make([]byte, hlen)...)
	if _, err := io.ReadFull(r, head[preambleLen:]); err != nil {
		return nil, sz, fmt.Errorf("snapshot: header: %w", truncated(err))
	}
	// The CRC covers the preamble too, so it is checked by hand here.
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, sz, fmt.Errorf("snapshot: header: %w", truncated(err))
	}
	if got, want := crc32.Checksum(head, castagnoli), binary.BigEndian.Uint32(sum[:]); got != want {
		return nil, sz, fmt.Errorf("snapshot: header: %w (%08x != %08x)", errCRC, got, want)
	}
	// Past its CRC the header is what some Write produced; each field is
	// checked all the same, because that Write need not have been ours.
	h := headerReader{b: head[preambleLen:]}
	s := &Snapshot{WALLSN: h.u64(), TagBlockBytes: h.int()}
	stores := h.u64()
	if stores&1 != 0 {
		s.KeyWrite = &keywrite.Config{Slots: h.u64(), DataSize: h.int(), ChecksumBits: h.int()}
	}
	if stores&2 != 0 {
		s.KeyIncrement = &keyincrement.Config{Slots: h.u64()}
	}
	if stores&4 != 0 {
		c := &postcarding.Config{Chunks: h.u64(), Hops: h.int(), SlotBits: h.int()}
		if n := h.u64(); n > uint64(len(h.b)/4) {
			h.bad = true
		} else if n > 0 {
			c.Values = make([]uint32, n)
			for i := range c.Values {
				c.Values[i] = binary.BigEndian.Uint32(h.b)
				h.b = h.b[4:]
			}
		}
		s.Postcarding = c
	}
	if stores&8 != 0 {
		s.Append = &appendlist.Config{Lists: h.int(), EntriesPerList: h.int(), EntrySize: h.int()}
	}
	for i := range sz {
		sz[i] = h.u64()
	}
	if h.bad || len(h.b) != 0 || stores>>4 != 0 {
		return nil, sz, errors.New("snapshot: malformed header")
	}
	if err := s.checkSizes(sz); err != nil {
		return nil, sz, err
	}
	if avail >= 0 {
		rest := uint64(trailerLen)
		for _, n := range sz {
			rest += n + 4*((n+blockSize-1)/blockSize)
		}
		if have := uint64(avail) - uint64(preambleLen+hlen+4); rest != have {
			return nil, sz, fmt.Errorf("snapshot: header describes %d more bytes, the input holds %d", rest, int64(have))
		}
	}
	return s, sz, nil
}

// Read parses a snapshot: it validates the header and every section
// length before it allocates, allocates each buffer once at its final
// size and verifies each block's CRC as it lands. A short, damaged or
// over-long input is an error. When r can tell how much it holds (a
// Len() int method, as bytes.Reader and bytes.Buffer have; Load asks the
// file) an image that describes anything else is refused before the
// first buffer is allocated — hand untrusted bytes to Read that way.
func Read(r io.Reader) (*Snapshot, error) {
	avail := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		avail = int64(l.Len())
	}
	return read(r, avail, nil)
}

// ReadInto is Read into dst's store buffers — a View of a fresh host, so
// the image lands in its regions, not in a second copy. They must be laid
// out as the image says (ErrGeometry, before anything is written); any
// failure after that zeroes every byte written. On success dst also takes
// the image's metadata (WALLSN, AppendHeads, tags). size is the number of
// bytes r holds (negative: unknown), which Read learns from Len.
func ReadInto(r io.Reader, size int64, dst *Snapshot) error {
	_, err := read(r, size, dst)
	return err
}

// read is the one block loop behind Read and ReadInto: with into nil it
// allocates each store buffer at the header's size, else uses into's.
func read(r io.Reader, avail int64, into *Snapshot) (_ *Snapshot, err error) {
	s, sz, err := readHeader(r, avail)
	if err != nil {
		return nil, err
	}
	bufs := s.bufs()
	var landed [4]int // the prefix of each of into's buffers written so far
	if into != nil {
		if !bytes.Equal(s.layout(sz), into.layout(into.sectionSizes())) {
			return nil, ErrGeometry
		}
		bufs = into.bufs()
		defer func() {
			if err != nil {
				for i, b := range bufs {
					clear((*b)[:landed[i]])
				}
			}
		}()
	}
	for i, b := range bufs {
		if sz[i] == 0 {
			continue
		}
		if into == nil {
			*b = make([]byte, sz[i])
		}
		for off := 0; off < len(*b); off += blockSize {
			landed[i] = min(off+blockSize, len(*b))
			if err := readBlock(r, (*b)[off:landed[i]]); err != nil {
				return nil, sectionErr(i, uint64(off), err)
			}
		}
	}
	var scratch []byte
	for i, a := range s.arrays() {
		if sz[4+i] == 0 {
			continue
		}
		*a = make([]uint64, sz[4+i]/8)
		for off := 0; off < len(*a); off += blockSize / 8 {
			part := (*a)[off:min(off+blockSize/8, len(*a))]
			if len(scratch) < 8*len(part) {
				scratch = make([]byte, 8*len(part))
			}
			blk := scratch[:8*len(part)]
			if err := readBlock(r, blk); err != nil {
				return nil, sectionErr(4+i, 8*uint64(off), err)
			}
			for j := range part {
				part[j] = binary.BigEndian.Uint64(blk[8*j:])
			}
		}
	}
	if err := readTrailer(r, sz); err != nil {
		return nil, err
	}
	if into != nil {
		into.WALLSN, into.TagBlockBytes = s.WALLSN, s.TagBlockBytes
		for i, a := range into.arrays() {
			*a = *s.arrays()[i]
		}
	}
	return s, nil
}

func sectionErr(section int, off uint64, err error) error {
	return fmt.Errorf("snapshot: %s section, block at byte %d: %w", sectionNames[section], off, err)
}

// readTrailer checks the mark of a complete image and that r ends there.
func readTrailer(r io.Reader, sz [nSections]uint64) error {
	var t [trailerLen - 4]byte
	if err := readBlock(r, t[:]); err != nil {
		return fmt.Errorf("snapshot: trailer: %w", err)
	}
	var payload uint64
	for _, n := range sz {
		payload += n
	}
	if [8]byte(t[:8]) != endMagic || binary.BigEndian.Uint64(t[8:]) != payload {
		return errors.New("snapshot: trailer does not match the header")
	}
	if n, err := r.Read(t[:1]); n != 0 {
		return errors.New("snapshot: bytes after the trailer")
	} else if err != nil && err != io.EOF {
		return fmt.Errorf("snapshot: after the trailer: %w", err)
	}
	return nil
}

// SectionCheck is Verify's verdict on one section.
type SectionCheck struct {
	Name  string
	Bytes uint64 // the section's length, from the header's table
	Err   error  // nil: every block's CRC matched
}

// Check is what Verify found in an image whose header it could read.
type Check struct {
	WALLSN   uint64
	Sections [nSections]SectionCheck
}

// Verify walks an image the way Read does — header, every block's CRC,
// trailer, nothing after it — through one block of scratch, keeping
// nothing. A block whose bytes are wrong does not stop the walk: the
// header fixes where every section lies, so each gets its own verdict;
// an input that ends early condemns the sections it did not reach. The
// error is the first damage found; the Check is nil only when that was
// in the header.
func Verify(r io.Reader) (*Check, error) {
	s, sz, err := readHeader(r, -1)
	if err != nil {
		return nil, err
	}
	ck := &Check{WALLSN: s.WALLSN}
	for i, n := range sz {
		ck.Sections[i] = SectionCheck{Name: sectionNames[i], Bytes: n}
	}
	var first error
	scratch := make([]byte, min(slices.Max(sz[:]), blockSize))
	for i, n := range sz {
		sec := &ck.Sections[i]
		for off := uint64(0); off < n; off += blockSize {
			err := readBlock(r, scratch[:min(n-off, blockSize)])
			if err == nil {
				continue
			}
			if sec.Err == nil {
				sec.Err = sectionErr(i, off, err)
			}
			if first == nil {
				first = sec.Err
			}
			if !errors.Is(err, errCRC) {
				for j := i + 1; j < nSections; j++ {
					ck.Sections[j].Err = sec.Err
				}
				return ck, first
			}
		}
	}
	if first == nil {
		first = readTrailer(r, sz)
	}
	return ck, first
}
