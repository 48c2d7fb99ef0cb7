// AVX2 kernel for the lane-batched PairHMM row update. See row_asm.go
// for the contract: bit-identical to two pure-Go rowQuad sweeps (same
// per-lane operations in the same rounding order, no FMA), with
// MXCSR.FTZ set for the duration of the call so products that round
// below 2^-126 become +0 instead of subnormals. rowQuad's mul32
// replays that flush in software.
//
// Register plan:
//   Y0  tgo (broadcast)       Y6 lastM
//   Y1  tge (broadcast)       Y7 lastD
//   Y2  prMatchM (broadcast)  Y8 lane bits: dword k = 1<<k
//   Y3  prMismM (broadcast)   Y9-Y15 transients
//   Y4  prMatchG (broadcast)
//   Y5  prMismG (broadcast)
//   SI/DI/R8 prev M/I/D   R9/R10/R11 cur M/I/D
//   R12 mask cursor  CX columns left  DX byte offset
//
// Column j (1-based) lives at byte offset j*32, all eight lanes in one
// ymm; the diagonal predecessors sit at -32. The rowArgs blend table
// is not read: the lane-select mask is built in-register.

#include "textflag.h"

DATA laneBits<>+0(SB)/4, $1
DATA laneBits<>+4(SB)/4, $2
DATA laneBits<>+8(SB)/4, $4
DATA laneBits<>+12(SB)/4, $8
DATA laneBits<>+16(SB)/4, $16
DATA laneBits<>+20(SB)/4, $32
DATA laneBits<>+24(SB)/4, $64
DATA laneBits<>+28(SB)/4, $128
GLOBL laneBits<>(SB), RODATA|NOPTR, $32

// The frame holds the caller's MXCSR at 0(SP) and the flushing one at
// 4(SP). MXCSR is per thread, not per goroutine, so FTZ is set and
// restored inside this call-free function, never from Go.
TEXT ·rowLanesAsm(SB), NOSPLIT, $8-8
	STMXCSR 0(SP)
	MOVL    0(SP), AX
	ORL     $0x8000, AX // FTZ (bit 15); DAZ stays as it was
	MOVL    AX, 4(SP)
	LDMXCSR 4(SP)

	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI   // pPM
	MOVQ 8(AX), DI   // pPI
	MOVQ 16(AX), R8  // pPD
	MOVQ 24(AX), R9  // pCM
	MOVQ 32(AX), R10 // pCI
	MOVQ 40(AX), R11 // pCD
	MOVQ 48(AX), R12 // mask
	MOVQ 64(AX), CX  // n

	VBROADCASTSS 72(AX), Y2 // prMatchM
	VBROADCASTSS 76(AX), Y3 // prMismM
	VBROADCASTSS 80(AX), Y4 // prMatchG
	VBROADCASTSS 84(AX), Y5 // prMismG
	VBROADCASTSS 88(AX), Y0 // tgo
	VBROADCASTSS 92(AX), Y1 // tge
	VMOVDQU      laneBits<>(SB), Y8

	// Column 0 of the current rows is the DP boundary: all zero. The
	// D chain starts at the boundary zeros.
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	VMOVUPS Y6, 0(R9)
	VMOVUPS Y6, 0(R10)
	VMOVUPS Y6, 0(R11)

	MOVQ  $32, DX // byte offset of column 1
	TESTQ CX, CX
	JLE   done

loop:
	// Lane-select mask: broadcast mb = mask[j-1] to every byte, keep
	// lane k's bit in dword k, compare back against the bit.
	VPBROADCASTB (R12), Y9
	INCQ         R12
	VPAND        Y8, Y9, Y9
	VPCMPEQD     Y8, Y9, Y9

	// prM = mask ? prMatchM : prMismM ; prG likewise.
	VBLENDVPS Y9, Y2, Y3, Y10 // Y10 = prM
	VBLENDVPS Y9, Y4, Y5, Y11 // Y11 = prG

	// mj = pMd*prM + (pId+pDd)*prG
	VMOVUPS -32(SI)(DX*1), Y12
	VMULPS  Y10, Y12, Y12
	VMOVUPS -32(DI)(DX*1), Y13
	VMOVUPS -32(R8)(DX*1), Y14
	VADDPS  Y14, Y13, Y13
	VMULPS  Y11, Y13, Y13
	VADDPS  Y13, Y12, Y12 // Y12 = mj

	// ij = pMu*tgo + pIu*tge
	VMOVUPS (SI)(DX*1), Y13
	VMULPS  Y0, Y13, Y13
	VMOVUPS (DI)(DX*1), Y14
	VMULPS  Y1, Y14, Y14
	VADDPS  Y14, Y13, Y13 // Y13 = ij

	// dj = lastM*tgo + lastD*tge
	VMULPS Y0, Y6, Y14
	VMULPS Y1, Y7, Y15
	VADDPS Y15, Y14, Y7 // Y7 = dj, the next column's lastD

	VMOVUPS Y12, (R9)(DX*1)
	VMOVUPS Y13, (R10)(DX*1)
	VMOVUPS Y7, (R11)(DX*1)
	VMOVAPS Y12, Y6 // lastM

	ADDQ $32, DX
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	LDMXCSR 0(SP)
	RET
