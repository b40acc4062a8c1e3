//go:build amd64 && !purego

#include "textflag.h"

// AVX2/FMA kernels for the coefficient bodies of every canonical-form
// kernel (see asm_amd64.go). All loops tolerate unaligned operands
// (banks align forms to the stride, not to 32 bytes) and finish with an
// in-kernel scalar tail, so callers pass the full coefficient count. The
// reductions (dotVec, dot3Vec, varCovVec, addSqVec, blendSqVec) use FMA
// contraction and lane-parallel accumulation, which reorders the arithmetic
// relative to the generic Go loops. The element-wise kernels (addVec,
// addScaledVec) multiply and add with separate roundings and so equal the
// generic loops bit for bit.

// func dotVec(a, b *float64, n int) float64
TEXT ·dotVec(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   dot_tail4
dot_loop8:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VFMADD231PD (DI), Y2, Y0
	VFMADD231PD 32(DI), Y3, Y1
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ AX
	JNZ  dot_loop8
dot_tail4:
	VADDPD Y1, Y0, Y0
	TESTQ $4, CX
	JZ    dot_reduce
	VMOVUPD (SI), Y2
	VFMADD231PD (DI), Y2, Y0
	ADDQ $32, SI
	ADDQ $32, DI
dot_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   dot_done
dot_scalar:
	VMOVSD (SI), X2
	VFMADD231SD (DI), X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ AX
	JNZ  dot_scalar
dot_done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func dot3Vec(de, p, s *float64, n int) (dp, ds, ps float64)
TEXT ·dot3Vec(SB), NOSPLIT, $0-56
	MOVQ de+0(FP), SI
	MOVQ p+8(FP), DI
	MOVQ s+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD Y0, Y0, Y0 // de.p
	VXORPD Y1, Y1, Y1 // de.s
	VXORPD Y2, Y2, Y2 // p.s
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   d3_reduce
d3_loop4:
	VMOVUPD (SI), Y3
	VMOVUPD (DI), Y4
	VMOVUPD (DX), Y5
	VFMADD231PD Y4, Y3, Y0
	VFMADD231PD Y5, Y3, Y1
	VFMADD231PD Y5, Y4, Y2
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ AX
	JNZ  d3_loop4
d3_reduce:
	VEXTRACTF128 $1, Y0, X3
	VADDPD X3, X0, X0
	VUNPCKHPD X0, X0, X3
	VADDSD X3, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VADDPD X3, X1, X1
	VUNPCKHPD X1, X1, X3
	VADDSD X3, X1, X1
	VEXTRACTF128 $1, Y2, X3
	VADDPD X3, X2, X2
	VUNPCKHPD X2, X2, X3
	VADDSD X3, X2, X2
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   d3_done
d3_scalar:
	VMOVSD (SI), X3
	VMOVSD (DI), X4
	VMOVSD (DX), X5
	VFMADD231SD X4, X3, X0
	VFMADD231SD X5, X3, X1
	VFMADD231SD X5, X4, X2
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ AX
	JNZ  d3_scalar
d3_done:
	VMOVSD X0, dp+32(FP)
	VMOVSD X1, ds+40(FP)
	VMOVSD X2, ps+48(FP)
	VZEROUPPER
	RET

// func addSqVec(dst, a, b *float64, n int) float64
TEXT ·addSqVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	VXORPD Y0, Y0, Y0
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   as_reduce
as_loop4:
	VMOVUPD (SI), Y2
	VADDPD (DI), Y2, Y2
	VMOVUPD Y2, (DX)
	VFMADD231PD Y2, Y2, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ AX
	JNZ  as_loop4
as_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   as_done
as_scalar:
	VMOVSD (SI), X2
	VADDSD (DI), X2, X2
	VMOVSD X2, (DX)
	VFMADD231SD X2, X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ AX
	JNZ  as_scalar
as_done:
	VMOVSD X0, ret+32(FP)
	VZEROUPPER
	RET

// func blendSqVec(dst, a, b *float64, n int, tp, tq float64) float64
TEXT ·blendSqVec(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTSD tp+32(FP), Y6
	VBROADCASTSD tq+40(FP), Y7
	VXORPD Y0, Y0, Y0
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   bl_reduce
bl_loop4:
	VMOVUPD (SI), Y2
	VMULPD Y6, Y2, Y2
	VMOVUPD (DI), Y3
	VFMADD231PD Y7, Y3, Y2
	VMOVUPD Y2, (DX)
	VFMADD231PD Y2, Y2, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ AX
	JNZ  bl_loop4
bl_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   bl_done
bl_scalar:
	VMOVSD (SI), X2
	VMULSD X6, X2, X2
	VMOVSD (DI), X3
	VFMADD231SD X7, X3, X2
	VMOVSD X2, (DX)
	VFMADD231SD X2, X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ AX
	JNZ  bl_scalar
bl_done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func varCovVec(a, b *float64, n int) (va, vb, cov float64)
TEXT ·varCovVec(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0 // a.a
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2 // b.b
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4 // a.b
	VXORPD Y5, Y5, Y5
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   vc_tail4
vc_loop8:
	VMOVUPD (SI), Y6
	VMOVUPD 32(SI), Y7
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VFMADD231PD Y6, Y6, Y0
	VFMADD231PD Y7, Y7, Y1
	VFMADD231PD Y8, Y8, Y2
	VFMADD231PD Y9, Y9, Y3
	VFMADD231PD Y8, Y6, Y4
	VFMADD231PD Y9, Y7, Y5
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ AX
	JNZ  vc_loop8
vc_tail4:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y5, Y4, Y4
	TESTQ $4, CX
	JZ    vc_reduce
	VMOVUPD (SI), Y6
	VMOVUPD (DI), Y8
	VFMADD231PD Y6, Y6, Y0
	VFMADD231PD Y8, Y8, Y2
	VFMADD231PD Y8, Y6, Y4
	ADDQ $32, SI
	ADDQ $32, DI
vc_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	VEXTRACTF128 $1, Y2, X1
	VADDPD X1, X2, X2
	VUNPCKHPD X2, X2, X1
	VADDSD X1, X2, X2
	VEXTRACTF128 $1, Y4, X1
	VADDPD X1, X4, X4
	VUNPCKHPD X4, X4, X1
	VADDSD X1, X4, X4
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   vc_done
vc_scalar:
	VMOVSD (SI), X6
	VMOVSD (DI), X8
	VFMADD231SD X6, X6, X0
	VFMADD231SD X8, X8, X2
	VFMADD231SD X8, X6, X4
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ AX
	JNZ  vc_scalar
vc_done:
	VMOVSD X0, va+24(FP)
	VMOVSD X2, vb+32(FP)
	VMOVSD X4, cov+40(FP)
	VZEROUPPER
	RET

// func addVec(dst, a, b *float64, n int)
TEXT ·addVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   ad_tail4
ad_loop8:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ AX
	JNZ  ad_loop8
ad_tail4:
	TESTQ $4, CX
	JZ    ad_tail
	VMOVUPD (SI), Y0
	VADDPD (DI), Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
ad_tail:
	ANDQ $3, CX
	JZ   ad_done
ad_scalar:
	VMOVSD (SI), X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DX)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JNZ  ad_scalar
ad_done:
	VZEROUPPER
	RET

// func addScaledVec(dst, a, src *float64, n int, k float64)
//
// dst[i] = a[i] + src[i]*k with the product rounded before the add (a
// VMULPD and a VADDPD, never an FMA).
TEXT ·addScaledVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ src+16(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTSD k+32(FP), Y2
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   sc_tail4
sc_loop8:
	VMULPD (DI), Y2, Y0
	VMULPD 32(DI), Y2, Y1
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ AX
	JNZ  sc_loop8
sc_tail4:
	TESTQ $4, CX
	JZ    sc_tail
	VMULPD (DI), Y2, Y0
	VADDPD (SI), Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
sc_tail:
	ANDQ $3, CX
	JZ   sc_done
sc_scalar:
	VMULSD (DI), X2, X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DX)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JNZ  sc_scalar
sc_done:
	VZEROUPPER
	RET

// func cpuidAsm(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
