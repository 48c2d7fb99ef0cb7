//go:build amd64 || arm64

package phmm

import "repro/internal/cpufeat"

// Assembly fast paths for the lane-batched row update: AVX2 on amd64
// (row_amd64.s, all eight lanes in one ymm), NEON on arm64
// (row_arm64.s, two 4-wide quads). Both kernels replay rowQuad's
// per-lane arithmetic with packed ops — same operations, same rounding
// order, so their output is bit-identical to the pure-Go quad path
// (TestRowLanesMatchesRowQuad and TestRowLanesFlushToZeroHammer assert
// exactly that). Dispatch consults cpufeat: amd64 hosts without AVX2,
// GBENCH_SIMD=sse2 and GBENCH_SIMD=off take the portable quad path —
// one fast path plus its forced-portable twin, reachable without
// rebuilding.
//
// The amd64 kernel runs with MXCSR.FTZ set (see row_amd64.s): a
// product that rounds below 2^-126 becomes +0 instead of a subnormal,
// which would cost a microcode assist per lane. rowQuad's mul32
// replays that flush on amd64, so the twin stays bit-identical.
//
// The arm64 kernel earns bit-identity differently: the Go arm64
// assembler exposes no packed FMUL/FADD, so the NEON kernel computes
// a*b as FMLA into a zeroed register (one rounding of 0 + a*b == one
// rounding of a*b; exact here because every operand in the forward
// pass is non-negative, so a*b is never -0) and x+y as FMLA with a
// broadcast 1.0 (one rounding of x + y*1.0; y*1.0 is always exact).
// The Go reference holds up its side by being fusion-free — see
// rowQuad. On arm64 subnormals are kept: mul32 flushes on amd64 only.

// haveRowAsm reports whether rowLanes dispatches to an assembly
// kernel on this architecture (informational, used by tests/docs).
const haveRowAsm = true

// rowArgs is the flattened argument block for rowLanesAsm. Field
// offsets are fixed by the assembly — keep layout and the int64 n in
// sync with row_amd64.s and row_arm64.s.
type rowArgs struct {
	pPM, pPI, pPD *float32 // previous M/I/D rows (stride lanes.Width)
	pCM, pCI, pCD *float32 // current M/I/D rows
	mask          *uint8   // per-column 8-lane match bits, len n
	tab           *uint32  // &blendTab[0][0] (arm64 only): nibble -> 4-lane select mask
	n             int64    // columns (haplotype positions)
	prMatchM      float32  // priorMatch * tMM
	prMismM       float32  // priorMismatch * tMM
	prMatchG      float32  // priorMatch * tIM
	prMismG       float32  // priorMismatch * tIM
	tgo           float32  // tMI (== tMD)
	tge           float32  // tII (== tDD)
}

// blendTab maps a 4-bit lane-match nibble to a 128-bit select mask:
// entry i, dword k is all-ones iff bit k of i is set. The arm64 kernel
// uses one entry per nibble in an xor-select, prior = (diff AND mask)
// XOR mism with diff = match XOR mism. The amd64 kernel builds its
// 8-lane mask in-register and ignores the table.
var blendTab = func() (t [16][4]uint32) {
	for i := range t {
		for k := 0; k < 4; k++ {
			if i>>k&1 == 1 {
				t[i][k] = ^uint32(0)
			}
		}
	}
	return
}()

//go:noescape
func rowLanesAsm(a *rowArgs)

// rowLanes advances all eight lanes of one read position: column 0 of
// the current rows is zeroed and columns 1..n are filled from the
// previous rows, exactly as two rowQuad sweeps would. Without AVX2 on
// amd64 or NEON on arm64, it IS two rowQuad sweeps.
func rowLanes(rowMask []uint8, priorMatch, priorMismatch float32,
	prevM, prevI, prevD, curM, curI, curD []float32, n int) {
	if f := cpufeat.Get(); !f.HasAVX2 && !f.HasNEON {
		rowQuad(rowMask, priorMatch, priorMismatch,
			&prevM[0], &prevI[0], &prevD[0], &curM[0], &curI[0], &curD[0], n, 0)
		rowQuad(rowMask, priorMatch, priorMismatch,
			&prevM[0], &prevI[0], &prevD[0], &curM[0], &curI[0], &curD[0], n, 4)
		return
	}
	a := rowArgs{
		pPM: &prevM[0], pPI: &prevI[0], pPD: &prevD[0],
		pCM: &curM[0], pCI: &curI[0], pCD: &curD[0],
		mask: &rowMask[0], tab: &blendTab[0][0], n: int64(n),
		prMatchM: priorMatch * tmm32, prMismM: priorMismatch * tmm32,
		prMatchG: priorMatch * tim32, prMismG: priorMismatch * tim32,
		tgo: tmi32, tge: tii32,
	}
	rowLanesAsm(&a)
}
