//go:build !unix

package main

import "syscall"

// readReady returns a function that reports an empty socket: off Unix
// the receive loop stops draining after the first datagram of a burst.
func readReady(syscall.RawConn, []byte) func() int {
	return func() int { return 0 }
}
