//go:build unix

package main

import "syscall"

// readReady returns a function that reads one datagram the socket already
// holds into buf, without waiting; it returns 0 or less when the socket
// is empty.
func readReady(rc syscall.RawConn, buf []byte) func() int {
	var n int
	poll := func(fd uintptr) bool {
		n, _ = syscall.Read(int(fd), buf) // the socket is non-blocking: EAGAIN when empty
		return true
	}
	return func() int {
		if rc.Read(poll) != nil {
			return 0
		}
		return n
	}
}
