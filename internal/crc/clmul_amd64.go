package crc

// haveCLMUL reports whether Sum128 runs the carry-less-multiply
// kernel: CPUID leaf 1 sets ECX bit 1 (PCLMULQDQ) on this CPU.
var haveCLMUL = cpuidECX1()&(1<<1) != 0

// cpuidECX1 returns ECX of CPUID leaf 1.
func cpuidECX1() uint32

// clmul16 writes to out[0..n) the CRC of key under each of the n
// kernels starting at k. n must be at least 1.
//
//go:noescape
func clmul16(key *[16]byte, k *kernel, n int, out *uint32)

// clmul16rot writes to out[0..n) the CRC under the kernel at k of key
// rotated by 0..n-1 bytes. n must be at least 1.
//
//go:noescape
func clmul16rot(key *[16]byte, k *kernel, n int, out *uint32)
