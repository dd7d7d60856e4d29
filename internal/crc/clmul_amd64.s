#include "textflag.h"

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// CRC16 sets DX to the CRC register of the 16-byte key in X7 from a zero
// register, XORed with the c0 of the kernel at BX, using X3 (the low 32
// bits of each quadword set) as a mask and X0–X2 as scratch. Fold the
// key's first eight bytes onto its last eight (x^96 mod P), fold the
// 96-bit result to 64 bits (x^64 mod P), then a Barrett reduction to 32
// bits, the register in bits 32–63. This is the finish tail of
// hash/crc32's ieeeCLMUL with every constant loaded from the kernel,
// and SSE2 + PCLMULQDQ only.
#define CRC16 \
	MOVQ 0(BX), X0 /* r4 */; \
	MOVOA X7, X1; \
	PCLMULQDQ $0x00, X1, X0; \
	PSRLDQ $8, X1; \
	PXOR X0, X1 /* key.hi ^ key.lo·r4, 96 bits */; \
	MOVOA X1, X2; \
	PSRLDQ $4, X2; \
	PAND X3, X1; \
	MOVQ 8(BX), X0 /* r5 */; \
	PCLMULQDQ $0x00, X0, X1; \
	PXOR X2, X1 /* 64 bits */; \
	MOVOA X1, X2; \
	PAND X3, X1; \
	MOVQ 24(BX), X0 /* μ′ */; \
	PCLMULQDQ $0x00, X0, X1; \
	PAND X3, X1; \
	MOVQ 16(BX), X0 /* P′ */; \
	PCLMULQDQ $0x00, X0, X1; \
	PXOR X2, X1; \
	MOVQ X1, DX; \
	SHRQ $32, DX; \
	XORL 32(BX), DX /* c0 */

// func clmul16(key *[16]byte, k *kernel, n int, out *uint32)
//
// For each of the n kernels at k (40 bytes apart), out[i] = the CRC of
// key under that kernel. n must be at least 1.
TEXT ·clmul16(SB), NOSPLIT, $0-32
	MOVQ key+0(FP), AX
	MOVQ k+8(FP), BX
	MOVQ n+16(FP), CX
	MOVQ out+24(FP), DI
	MOVOU (AX), X7
	PCMPEQB X3, X3
	PSRLQ $32, X3

next:
	CRC16
	MOVL DX, (DI)
	ADDQ $40, BX
	ADDQ $4, DI
	DECQ CX
	JNZ next
	RET

// func clmul16rot(key *[16]byte, k *kernel, n int, out *uint32)
//
// For h in [0, n), out[h] = the CRC under the one kernel at k of key
// rotated by h bytes (byte i of the rotation is key[(i+h) mod 16]): the
// key is loaded once and its register turned one byte down after each
// hop, byte 0 wrapping into byte 15. n must be at least 1.
TEXT ·clmul16rot(SB), NOSPLIT, $0-32
	MOVQ key+0(FP), AX
	MOVQ k+8(FP), BX
	MOVQ n+16(FP), CX
	MOVQ out+24(FP), DI
	MOVOU (AX), X7
	PCMPEQB X3, X3
	PSRLQ $32, X3

hop:
	CRC16
	MOVL DX, (DI)
	MOVOA X7, X0
	PSRLDQ $1, X7
	PSLLDQ $15, X0
	POR X0, X7
	ADDQ $4, DI
	DECQ CX
	JNZ hop
	RET
