//go:build !amd64

package crc

// haveCLMUL is false where no carry-less-multiply stub is written:
// Sum128 then runs slicing-by-8.
const haveCLMUL = false

func clmul16(key *[16]byte, k *kernel, n int, out *uint32) {
	panic("crc: no carry-less-multiply kernel on this GOARCH")
}

func clmul16rot(key *[16]byte, k *kernel, n int, out *uint32) {
	panic("crc: no carry-less-multiply kernel on this GOARCH")
}
