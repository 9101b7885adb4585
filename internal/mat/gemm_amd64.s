#include "textflag.h"

// func dotPack16AVX(a, bp, acc []float64)
//
// acc[lane] += Σ_i a[i] · bp[i*16+lane] for lane in 0..15, with each lane's
// accumulation strictly sequential in i — four 4-wide vector accumulators,
// one output column per lane, VMULPD+VADDPD (never FMA, whose single
// rounding would diverge from the scalar reference). len(bp) must be
// 16*len(a) and len(acc) 16; the caller (mulPackBlock) guarantees both.
TEXT ·dotPack16AVX(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ bp_base+24(FP), DX
	MOVQ acc_base+48(FP), DI
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	TESTQ CX, CX
	JZ   done

loop:
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(DX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(DX), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(DX), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, SI
	ADDQ $128, DX
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func convReLUPack16AVX(x, bp, bias, y []float64, stride, ol int)
//
// One 16-filter tile of the fused conv front-end (see ConvReLURow). For
// every output position t in 0..ol-1: the four accumulators are seeded with
// bias[0..15], walk the window x[t*stride : t*stride+K] in k order exactly
// as dotPack16AVX does (VMULPD+VADDPD, never FMA), are rectified with
// VMAXPD against +0 — which returns the second operand, +0, for NaN and for
// either zero, matching the scalar `v > 0 ? v : 0` — and are scattered to
// their channel-major slots y[lane*ol + t]. K = len(bp)/16 must be >= 1,
// len(x) >= (ol-1)*stride + K and len(y) >= 16*ol; ConvReLURow guarantees
// all three.
TEXT ·convReLUPack16AVX(SB), NOSPLIT, $0-112
	MOVQ x_base+0(FP), SI
	MOVQ bp_base+24(FP), DX
	MOVQ bp_len+32(FP), CX
	SHRQ $4, CX
	MOVQ bias_base+48(FP), AX
	MOVQ y_base+72(FP), DI
	MOVQ stride+96(FP), R8
	SHLQ $3, R8
	MOVQ ol+104(FP), R10
	MOVQ R10, R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R11
	MOVQ R9, R12
	SHLQ $2, R12
	VMOVUPD (AX), Y9
	VMOVUPD 32(AX), Y10
	VMOVUPD 64(AX), Y11
	VMOVUPD 96(AX), Y12
	VXORPD Y13, Y13, Y13
	TESTQ R10, R10
	JZ   convdone

convpos:
	VMOVAPD Y9, Y0
	VMOVAPD Y10, Y1
	VMOVAPD Y11, Y2
	VMOVAPD Y12, Y3
	MOVQ SI, BX
	MOVQ DX, R13
	MOVQ CX, AX

convk:
	VBROADCASTSD (BX), Y4
	VMULPD (R13), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R13), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R13), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R13), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, BX
	ADDQ $128, R13
	DECQ AX
	JNZ  convk

	VMAXPD Y13, Y0, Y0
	VMAXPD Y13, Y1, Y1
	VMAXPD Y13, Y2, Y2
	VMAXPD Y13, Y3, Y3

	MOVQ DI, BX
	VMOVSD X0, (BX)
	VMOVHPD X0, (BX)(R9*1)
	VEXTRACTF128 $1, Y0, X4
	VMOVSD X4, (BX)(R9*2)
	VMOVHPD X4, (BX)(R11*1)
	ADDQ R12, BX
	VMOVSD X1, (BX)
	VMOVHPD X1, (BX)(R9*1)
	VEXTRACTF128 $1, Y1, X5
	VMOVSD X5, (BX)(R9*2)
	VMOVHPD X5, (BX)(R11*1)
	ADDQ R12, BX
	VMOVSD X2, (BX)
	VMOVHPD X2, (BX)(R9*1)
	VEXTRACTF128 $1, Y2, X6
	VMOVSD X6, (BX)(R9*2)
	VMOVHPD X6, (BX)(R11*1)
	ADDQ R12, BX
	VMOVSD X3, (BX)
	VMOVHPD X3, (BX)(R9*1)
	VEXTRACTF128 $1, Y3, X7
	VMOVSD X7, (BX)(R9*2)
	VMOVHPD X7, (BX)(R11*1)

	ADDQ $8, DI
	ADDQ R8, SI
	DECQ R10
	JNZ  convpos

convdone:
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
