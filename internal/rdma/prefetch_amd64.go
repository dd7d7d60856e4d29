package rdma

import "unsafe"

// prefetch hints that the cache line holding addr will soon be
// accessed (PREFETCHT0, into every cache level). It retires at once,
// loads nothing into a register and cannot fault, so the line's miss
// overlaps whatever the caller does next.
//
//go:noescape
func prefetch(addr unsafe.Pointer)
