#include "textflag.h"

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func clmul16(key *[16]byte, k *kernel, n int, out *uint32)
//
// For each of the n kernels at k (40 bytes apart), out[i] = the CRC
// register of key from a zero register, XORed with that kernel's c0.
// Per kernel: fold the key's first eight bytes onto its last eight
// (x^96 mod P), fold the 96-bit result to 64 bits (x^64 mod P), then a
// Barrett reduction to 32 bits, the register in bits 32–63. This is the
// finish tail of hash/crc32's ieeeCLMUL with every constant loaded from
// the kernel, and SSE2 + PCLMULQDQ only. n must be at least 1.
TEXT ·clmul16(SB), NOSPLIT, $0-32
	MOVQ key+0(FP), AX
	MOVQ k+8(FP), BX
	MOVQ n+16(FP), CX
	MOVQ out+24(FP), DI
	MOVOU (AX), X7
	PCMPEQB X3, X3
	PSRLQ $32, X3          // X3: low 32 bits of each quadword

next:
	MOVQ 0(BX), X0         // r4
	MOVOA X7, X1
	PCLMULQDQ $0x00, X1, X0
	PSRLDQ $8, X1
	PXOR X0, X1            // key.hi ^ key.lo·r4, 96 bits

	MOVOA X1, X2
	PSRLDQ $4, X2
	PAND X3, X1
	MOVQ 8(BX), X0         // r5
	PCLMULQDQ $0x00, X0, X1
	PXOR X2, X1            // 64 bits

	MOVOA X1, X2
	PAND X3, X1
	MOVQ 24(BX), X0        // μ′
	PCLMULQDQ $0x00, X0, X1
	PAND X3, X1
	MOVQ 16(BX), X0        // P′
	PCLMULQDQ $0x00, X0, X1
	PXOR X2, X1

	MOVQ X1, DX
	SHRQ $32, DX
	XORL 32(BX), DX        // c0
	MOVL DX, (DI)
	ADDQ $40, BX
	ADDQ $4, DI
	DECQ CX
	JNZ next
	RET
