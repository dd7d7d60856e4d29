//go:build !linux

package rdma

// allocRegion returns a zeroed heap slice of exactly size bytes. Only
// Linux advises regions onto transparent huge pages.
func allocRegion(size int) []byte {
	return make([]byte, size)
}
