//go:build !amd64

package rdma

import "unsafe"

// prefetch is a no-op where no prefetch stub is written: the executing
// verbs then take their store misses one at a time.
func prefetch(addr unsafe.Pointer) {}
