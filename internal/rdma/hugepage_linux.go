//go:build linux

package rdma

import (
	"syscall"
	"unsafe"
)

// hugePageSize is the transparent huge page size on x86-64 and on arm64
// with 4 KiB base pages.
const hugePageSize = 2 << 20

// allocRegion returns a zeroed heap slice of exactly size bytes whose
// 2 MiB-aligned interior is advised onto transparent huge pages, so a
// random slot access over a large store misses the TLB far less often.
// The head and tail outside the interior, each under 2 MiB, stay on
// 4 KiB pages; nothing is over-allocated.
//
// MADV_HUGEPAGE alone does not help: make has already zeroed a reused
// heap span, which faults it in at 4 KiB. MADV_DONTNEED drops those
// pages; private anonymous memory reads back as zero, so make's
// guarantee holds, and the next touch faults huge pages. Errors are
// ignored: with THP compiled out or in mode never, the region is just as
// correct on 4 KiB pages.
func allocRegion(size int) []byte {
	b := make([]byte, size)
	if size < hugePageSize {
		return b
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (base + hugePageSize - 1) &^ (hugePageSize - 1)
	hi := (base + uintptr(size)) &^ (hugePageSize - 1)
	if lo >= hi {
		return b
	}
	interior := b[lo-base : hi-base]
	_ = syscall.Madvise(interior, syscall.MADV_HUGEPAGE)
	_ = syscall.Madvise(interior, syscall.MADV_DONTNEED)
	return b
}
