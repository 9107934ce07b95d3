//go:build amd64 && !noasm

// The elementwise kernels: tanh forward and backward, softmax's
// exponentials, dropout's divide-and-mask and its backward multiply,
// four lanes at a time. Each lane performs exactly the scalar operation
// sequence of its portable twin in elem.go — the same rounded adds,
// multiplies and divides in the same order, and fused multiply-adds only
// where exp (mathfn.go, a port of math/exp_amd64.s) has them — so the
// results are the twins' bit for bit. A branch of the scalar code
// becomes both sides computed and a compare-and-blend, and the kernels
// take n a multiple of four, leaving the rest to the twins. Every vector
// instruction is VEX-encoded and every kernel ends with VZEROUPPER.

#include "textflag.h"

// Offsets into ·elemConst, 32 bytes (one broadcast YMM) per constant.
#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define C8 128
#define C7 160
#define C6 192
#define C5 224
#define C4 256
#define C3 288
#define C2 320
#define ONE 352
#define TWO 384
#define BIAS 416
#define ABS 448
#define SIGN 480
#define TMID 512
#define TMAX 544
#define P0 576
#define P1 608
#define P2 640
#define Q0 672
#define Q1 704
#define Q2 736
#define ELO 768
#define EHI 800

// EXP4 sets Y1 to exp(Y1) lane by lane, as exp's path for arguments
// whose 2**k is normal: k = round(x·log2e) (VCVTPD2DQ rounds to nearest
// even, as CVTSD2SL does), r = x − k·ln2 in two fused steps, r/16, the
// Taylor polynomial by fused multiply-adds, r·p, three r·(r+2), one
// fused r·(r+2)+1, and the product with 2**k built from k's bits.
// R12 = &elemConst; clobbers Y2 and Y3.
#define EXP4 \
	VMULPD       LOG2E(R12), Y1, Y2;      \
	VCVTPD2DQY   Y2, X3;                  \
	VCVTDQ2PD    X3, Y2;                  \
	VFNMADD231PD LN2U(R12), Y2, Y1;       \
	VFNMADD231PD LN2L(R12), Y2, Y1;       \
	VMULPD       SIXTEENTH(R12), Y1, Y1;  \
	VMOVUPD      C8(R12), Y2;             \
	VFMADD213PD  C7(R12), Y1, Y2;         \
	VFMADD213PD  C6(R12), Y1, Y2;         \
	VFMADD213PD  C5(R12), Y1, Y2;         \
	VFMADD213PD  C4(R12), Y1, Y2;         \
	VFMADD213PD  C3(R12), Y1, Y2;         \
	VFMADD213PD  C2(R12), Y1, Y2;         \
	VFMADD213PD  ONE(R12), Y1, Y2;        \
	VMULPD       Y2, Y1, Y1;              \
	VADDPD       TWO(R12), Y1, Y2;        \
	VMULPD       Y2, Y1, Y1;              \
	VADDPD       TWO(R12), Y1, Y2;        \
	VMULPD       Y2, Y1, Y1;              \
	VADDPD       TWO(R12), Y1, Y2;        \
	VMULPD       Y2, Y1, Y1;              \
	VADDPD       TWO(R12), Y1, Y2;        \
	VFMADD213PD  ONE(R12), Y2, Y1;        \
	VPMOVSXDQ    X3, Y3;                  \
	VPADDQ       BIAS(R12), Y3, Y3;       \
	VPSLLQ       $52, Y3, Y3;             \
	VMULPD       Y3, Y1, Y1

// func tanhFwdAsm(dst, src *float64, n int)
//
// dst[i] = tanh(src[i]), n > 0 a multiple of 4. Each of tanh's branches
// is computed for all four lanes: Cephes' rational form (or x itself
// where x is ±0); then, if any lane has |x| ≥ 0.625, 1 − 2/(exp(2|x|)+1)
// with x's sign for those lanes and ±1 for the lanes beyond tanhMax.
// Both compares are ordered, so a NaN lane takes the rational form, as
// the scalar switch does. Activations are small — in the catalog's
// LSTM, 98 % of groups have no lane at 0.625 or beyond — so most groups
// skip exp and its divide; a lane that computes exp out of EXP4's range
// is never picked.
TEXT ·tanhFwdAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·elemConst(SB), R12
	XORQ AX, AX
tloop:
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    ABS(R12), Y0, Y6
	VCMPPD    $0x1D, TMID(R12), Y6, Y8
	VMOVMSKPD Y8, BX

	// x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2), s = x², and x
	// itself where x is ±0.
	VMULPD    Y0, Y0, Y2
	VMULPD    P0(R12), Y2, Y3
	VADDPD    P1(R12), Y3, Y3
	VMULPD    Y2, Y3, Y3
	VADDPD    P2(R12), Y3, Y3
	VADDPD    Q0(R12), Y2, Y4
	VMULPD    Y2, Y4, Y4
	VADDPD    Q1(R12), Y4, Y4
	VMULPD    Y2, Y4, Y4
	VADDPD    Q2(R12), Y4, Y4
	VMULPD    Y2, Y0, Y5
	VMULPD    Y3, Y5, Y5
	VDIVPD    Y4, Y5, Y5
	VADDPD    Y5, Y0, Y5
	VXORPD    Y4, Y4, Y4
	VCMPPD    $0x00, Y4, Y0, Y4
	VBLENDVPD Y4, Y0, Y5, Y5
	TESTQ     BX, BX
	JZ        tstore

	// 1 − 2/(s+1), s = exp(2|x|), negated where x < 0, for the lanes
	// with |x| ≥ 0.625; ±1 for those with |x| > tanhMax.
	VANDPD    SIGN(R12), Y0, Y7
	VADDPD    Y6, Y6, Y1
	EXP4
	VADDPD    ONE(R12), Y1, Y1
	VMOVUPD   TWO(R12), Y2
	VDIVPD    Y1, Y2, Y1
	VMOVUPD   ONE(R12), Y2
	VSUBPD    Y1, Y2, Y1
	VXORPD    Y7, Y1, Y1
	VBLENDVPD Y8, Y1, Y5, Y5
	VCMPPD    $0x1E, TMAX(R12), Y6, Y2
	VORPD     ONE(R12), Y7, Y3
	VBLENDVPD Y2, Y3, Y5, Y5

tstore:
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tloop
	VZEROUPPER
	RET

// func tanhBwdAsm(dst, y, grad *float64, n int)
//
// dst[i] = grad[i]·(1 − y[i]·y[i]), n > 0 a multiple of 4.
TEXT ·tanhBwdAsm(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    y+8(FP), SI
	MOVQ    grad+16(FP), DX
	MOVQ    n+24(FP), CX
	LEAQ    ·elemConst(SB), R12
	VMOVUPD ONE(R12), Y3
	XORQ    AX, AX
bloop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y3, Y0
	VMULPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     bloop
	VZEROUPPER
	RET

// func mulAsm(dst, a, b *float64, n int)
//
// dst[i] = a[i]·b[i], n > 0 a multiple of 4.
TEXT ·mulAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
mloop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     mloop
	VZEROUPPER
	RET

// func expShiftAsm(dst, src *float64, n int, m float64) int
//
// dst[i] = exp(src[i] − m) for the groups of four from the start, n a
// multiple of 4. It stops before the first group with an argument
// outside [ELO, EHI] or NaN — EXP4 does not do exp's overflow and
// subnormal edges — and returns how many elements it wrote.
TEXT ·expShiftAsm(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD m+24(FP), Y5
	LEAQ         ·elemConst(SB), R12
	XORQ         AX, AX
eloop:
	CMPQ      AX, CX
	JGE       edone
	VMOVUPD   (SI)(AX*8), Y1
	VSUBPD    Y5, Y1, Y1
	VCMPPD    $0x1D, ELO(R12), Y1, Y2
	VCMPPD    $0x12, EHI(R12), Y1, Y3
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, BX
	CMPQ      BX, $15
	JNE       edone
	EXP4
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       eloop
edone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func dropMaskAsm(m, o, x *float64, u *uint64, n int, below, inv uint64, keep float64)
//
// One block of dropout draws, n > 0 a multiple of 4: kept = below >
// u>>11 as a signed compare (both are at most 2⁵³), m = inv & kept and
// o = (x/keep) & kept.
TEXT ·dropMaskAsm(SB), NOSPLIT, $0-64
	MOVQ         m+0(FP), DI
	MOVQ         o+8(FP), DX
	MOVQ         x+16(FP), SI
	MOVQ         u+24(FP), R8
	MOVQ         n+32(FP), CX
	VPBROADCASTQ below+40(FP), Y5
	VPBROADCASTQ inv+48(FP), Y6
	VBROADCASTSD keep+56(FP), Y7
	XORQ         AX, AX
dloop:
	VMOVDQU  (R8)(AX*8), Y0
	VPSRLQ   $11, Y0, Y0
	VPCMPGTQ Y0, Y5, Y0
	VANDPD   Y6, Y0, Y1
	VMOVUPD  (SI)(AX*8), Y2
	VDIVPD   Y7, Y2, Y2
	VANDPD   Y0, Y2, Y2
	VMOVUPD  Y1, (DI)(AX*8)
	VMOVUPD  Y2, (DX)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      dloop
	VZEROUPPER
	RET

// func transposeAsm(wt, w *float64, in, out int)
//
// wt[j·in + i] = w[i·out + j] over the whole 4×4 blocks, i < in&^3 and
// j < out&^3: four rows of w in, two unpacks and two 128-bit lane
// swaps, four rows of wt out. R8 walks w along a block row of four, R9
// wt down the matching block column; CX and DX are where they start.
TEXT ·transposeAsm(SB), NOSPLIT, $0-32
	MOVQ wt+0(FP), DX
	MOVQ w+8(FP), CX
	MOVQ in+16(FP), R12
	MOVQ out+24(FP), R13
	LEAQ (R13*8), R10
	LEAQ (R12*8), R11
	LEAQ (R10)(R10*2), SI
	LEAQ (R11)(R11*2), DI
	ANDQ $~3, R12
	ANDQ $~3, R13
	XORQ AX, AX
xrow:
	MOVQ CX, R8
	MOVQ DX, R9
	XORQ BX, BX
xblock:
	VMOVUPD    (R8), Y0
	VMOVUPD    (R8)(R10*1), Y1
	VMOVUPD    (R8)(R10*2), Y2
	VMOVUPD    (R8)(SI*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (R9)
	VMOVUPD    Y1, (R9)(R11*1)
	VMOVUPD    Y2, (R9)(R11*2)
	VMOVUPD    Y3, (R9)(DI*1)
	ADDQ       $32, R8
	LEAQ       (R9)(R11*4), R9
	ADDQ       $4, BX
	CMPQ       BX, R13
	JLT        xblock
	LEAQ (CX)(R10*4), CX
	ADDQ $32, DX
	ADDQ $4, AX
	CMPQ AX, R12
	JLT  xrow
	VZEROUPPER
	RET

// func cpuHasFMA() bool
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
