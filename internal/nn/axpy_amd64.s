//go:build amd64 && !noasm

// Packed compute kernels. Each lane performs exactly the scalar
// operation sequence of the portable Go loops — multiply-then-add for
// axpy (never FMA), compare-then-mask for ReLU — and every output
// element is independent, so vectorisation only changes how many
// independent elements are in flight, not any element's value: results
// are bit-identical to the generic implementations.

#include "textflag.h"

// func axpyAsm(o, w *float64, n int, a float64)
//
// o[j] += a*w[j]. Dispatches on ·useAVX2: 4-lane VEX path with a
// 16-element main loop and 8/4/2/1 tails, or the baseline-SSE2 2-lane
// path with an 8-element main loop and 4/2/1 tails.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ n+16(FP), CX
	CMPB ·useAVX2(SB), $0
	JNE  avx

	MOVSD    a+24(FP), X0
	UNPCKLPD X0, X0
	MOVQ     CX, BX
	SHRQ     $3, BX
	JZ       sse4
sseloop:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD (DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	ADDPD  X1, X5
	ADDPD  X2, X6
	ADDPD  X3, X7
	ADDPD  X4, X8
	MOVUPD X5, (DI)
	MOVUPD X6, 16(DI)
	MOVUPD X7, 32(DI)
	MOVUPD X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    sseloop
sse4:
	TESTQ $4, CX
	JZ    sse2
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MULPD  X0, X1
	MULPD  X0, X2
	MOVUPD (DI), X5
	MOVUPD 16(DI), X6
	ADDPD  X1, X5
	ADDPD  X2, X6
	MOVUPD X5, (DI)
	MOVUPD X6, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
sse2:
	TESTQ $2, CX
	JZ    sse1
	MOVUPD (SI), X1
	MULPD  X0, X1
	MOVUPD (DI), X5
	ADDPD  X1, X5
	MOVUPD X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
sse1:
	TESTQ $1, CX
	JZ    ssedone
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X2
	ADDSD X1, X2
	MOVSD X2, (DI)
ssedone:
	RET

avx:
	VBROADCASTSD a+24(FP), Y0
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           avx8
avxloop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    BX
	JNZ     avxloop
avx8:
	TESTQ $8, CX
	JZ    avx4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
avx4:
	TESTQ $4, CX
	JZ    avx2
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
avx2:
	TESTQ $2, CX
	JZ    avx1
	VMOVUPD (SI), X1
	VMULPD  X0, X1, X1
	VADDPD  (DI), X1, X1
	VMOVUPD X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
avx1:
	TESTQ $1, CX
	JZ    avxdone
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
avxdone:
	VZEROUPPER
	RET

// func reluFwdAsm(dst, src *float64, n int)
//
// dst[i] = src[i] if src[i] > 0 else +0, branch-free: mask = (0 < src)
// builds all-ones lanes exactly where the scalar comparison is true
// (NaN and ±0 lanes get +0, as the reference branch produces), and
// src&mask passes the value or +0 through. Baseline SSE2 — the kernel
// is load/store-bound, so wider vectors buy little here.
TEXT ·reluFwdAsm(SB), NOSPLIT, $0-24
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  n+16(FP), CX
	XORPD X0, X0
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    rf1
rfloop:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVAPD X0, X3
	MOVAPD X0, X4
	CMPPD  X1, X3, $1
	CMPPD  X2, X4, $1
	ANDPD  X1, X3
	ANDPD  X2, X4
	MOVUPD X3, (DI)
	MOVUPD X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   BX
	JNZ    rfloop
rf1:
	ANDQ $3, CX
	JZ   rfdone
rftail:
	// MOVSD zeroes the high lane, so packed compare/mask on lane 0 is
	// exact and lane 1 is inert.
	MOVSD  (SI), X1
	MOVAPD X0, X3
	CMPPD  X1, X3, $1
	ANDPD  X1, X3
	MOVSD  X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    rftail
rfdone:
	RET

// func reluBwdAsm(dst, y, grad *float64, n int)
//
// dst[i] = grad[i] if y[i] > 0 else +0 — the same compare-then-mask with
// the mask drawn from the cached forward output.
TEXT ·reluBwdAsm(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  y+8(FP), SI
	MOVQ  grad+16(FP), DX
	MOVQ  n+24(FP), CX
	XORPD X0, X0
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    rb1
rbloop:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVAPD X0, X3
	MOVAPD X0, X4
	CMPPD  X1, X3, $1
	CMPPD  X2, X4, $1
	MOVUPD (DX), X5
	MOVUPD 16(DX), X6
	ANDPD  X5, X3
	ANDPD  X6, X4
	MOVUPD X3, (DI)
	MOVUPD X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	DECQ   BX
	JNZ    rbloop
rb1:
	ANDQ $3, CX
	JZ   rbdone
rbtail:
	MOVSD  (SI), X1
	MOVAPD X0, X3
	CMPPD  X1, X3, $1
	MOVSD  (DX), X5
	ANDPD  X5, X3
	MOVSD  X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    rbtail
rbdone:
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// Require CPUID leaf 7, OSXSAVE (leaf 1 ECX bit 27) and AVX (bit
	// 28), that the OS enabled XMM+YMM state (XCR0 bits 1 and 2), and
	// AVX2 (leaf 7 EBX bit 5).
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  noavx2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    noavx2
	MOVB $1, ret+0(FP)
	RET
noavx2:
	MOVB $0, ret+0(FP)
	RET
