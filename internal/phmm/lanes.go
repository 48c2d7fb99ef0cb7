package phmm

// Lane-batched PairHMM forward pass: instead of one scalar DP per
// (read, haplotype) pair, a read's haplotypes are grouped into lanes
// of eight and one struct-of-arrays pass advances all eight forward
// recurrences together — the inter-task vectorization GATK's AVX
// PairHMM uses, expressed with internal/lanes Lane8 vectors.
//
// Layout: the M/I/D DP rows become []lanes.Lane8, lane l of column j
// holding haplotype l's state at position j. Haplotypes in a group
// are ragged; the group DP runs to the LONGEST haplotype and each
// lane's likelihood is read off at its own length. Columns past a
// lane's end compute garbage that provably never flows back (the
// recurrence only reads columns <= j) and is never summed (the final
// row is masked per lane to [1, len(hap_l)]).
//
// Emission priors are gathered from the haplotypes through the
// internal/seq2 2-bit packing: each group precomputes, per reference
// base b and column j, an 8-bit mask of which lanes match b, so the
// scalar core's per-cell `hap[j-1] == rb` branch becomes a branch-free
// Pick2 table select.
//
// Numerics: per-lane arithmetic follows the scalar expressions with
// two documented deviations — the M update factors the symmetric
// gap-continuation terms (tIM == tDM) and pre-multiplies the emission
// prior by the match transition, reassociating one addition and one
// multiplication per cell — so lane likelihoods agree with the scalar
// reference within laneTolerance rather than bit-for-bit (derivation
// at that constant). A consequence for the argmax: when two
// haplotypes' true likelihoods are closer than the tolerance (clones,
// or near-clones), BestHap may pick either of them; the differential
// tests pin BestHap exactly except on such near-ties. Lanes whose
// float32 sum underflows fall back to the scalar float64 pass,
// exactly like the scalar path, and ragged group tails (|H| mod 8)
// use the scalar float32 path unchanged.
//
// On amd64 with AVX2 the per-row update dispatches to an assembly
// kernel that runs with MXCSR.FTZ set (row_amd64.s), and on arm64 to a
// NEON kernel (row_arm64.s); both are bit-identical to the pure-Go
// quad sweeps — the portable path below is the reference they are
// tested against. rowQuad routes every product through mul32, which
// replays the amd64 flush to zero, and whose explicit float32
// conversion the Go spec forbids the arm64 compiler from fusing into
// a single-rounding FMA.

import (
	"math"
	"runtime"

	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/scratch"
	"repro/internal/seq2"
)

// laneTolerance is the documented bound on |lane - scalar| for one
// log10 likelihood. The lane M update computes pMd*(prior*tmm) +
// (pId+pDd)*(prior*tim) where the scalar reference computes
// prior*(tmm*pMd + tim*pId + tdm*pDd) (equal reals, different
// rounding): each cell perturbs the forward mass by at most a few
// float32 ulps relative (k·2^-24, k ≤ 3 reassociated roundings), and
// the perturbations compound across the read, giving |Δlog10| ≲
// 3m·2^-24/ln(10) ≈ 2e-5 for the longest supported reads (m ≈ 250).
//
// On amd64 the row kernel also flushes to zero every product that
// rounds below 2^-126 (see ftzBelow). Each flushed product is below
// 2^-126, a cell computes six products, and every state's outgoing
// transition weights sum to at most 1, so a loss at one cell reaches
// the final sum at most undiminished: the total loss is below
// 6·m·n·2^-126 ≈ 1.4e-32 for the suite's largest pairs (m·n ≤
// 80·2400). A lane sum is kept only above underflowThreshold32 = 1e-28,
// so the relative loss is below 1.4e-4 and |Δlog10| below 6e-5. With
// the reassociation term that stays inside 1e-4; the differential
// tests assert it on every workload.
const laneTolerance = 1e-4

// float32 transition constants, the same values forwardInto uses for
// F = float32.
var (
	tmm32 = float32(tMM)
	tmi32 = float32(tMI)
	tmd32 = float32(tMD)
	tim32 = float32(tIM)
	tii32 = float32(tII)
	tdm32 = float32(tDM)
	tdd32 = float32(tDD)
)

// laneGroup is the precomputed per-group haplotype layout: built once
// per region and reused by every read's lane pass.
type laneGroup struct {
	maxN int              // longest haplotype in the group
	lens [lanes.Width]int // per-lane haplotype lengths
	init lanes.Lane8      // per-lane scaled initial D mass
	mask [4][]uint8       // mask[b][j]: lanes whose hap[j] == b
	live []uint8          // live[j]: lanes with j <= len(hap_l)
}

// prepareGroups packs the region's full lane groups into s, reusing
// storage from earlier calls. Returns the number of full groups.
func prepareGroups(haps []genome.Seq, s *Scratch) int {
	nGroups := len(haps) / lanes.Width
	s.groups = scratch.Grow(s.groups, nGroups)
	for g := 0; g < nGroups; g++ {
		grp := &s.groups[g]
		members := haps[g*lanes.Width : (g+1)*lanes.Width]
		grp.maxN = 0
		var initArr [lanes.Width]float32
		for l, hap := range members {
			grp.lens[l] = len(hap)
			if len(hap) > grp.maxN {
				grp.maxN = len(hap)
			}
			if len(hap) > 0 {
				initArr[l] = float32(initialScale32 / float64(len(hap)))
			}
			// 2-bit pack the haplotype (the seq2 hot-path idiom); the
			// packed words drive the column mask build below.
			s.packs[l] = seq2.PackInto(s.packs[l], hap).WordsSlice()
		}
		grp.init = lanes.FromArray(initArr)
		for b := 0; b < 4; b++ {
			grp.mask[b] = scratch.Grow(grp.mask[b], grp.maxN)
			clear(grp.mask[b])
		}
		grp.live = scratch.Grow(grp.live, grp.maxN+1)
		for j := 0; j <= grp.maxN; j++ {
			var lm uint8
			for l := 0; l < lanes.Width; l++ {
				if j <= grp.lens[l] {
					lm |= 1 << uint(l)
				}
			}
			grp.live[j] = lm
		}
		for l := 0; l < lanes.Width; l++ {
			p := seq2.FromWords(s.packs[l], grp.lens[l])
			bit := uint8(1) << uint(l)
			for j := 0; j < grp.lens[l]; j++ {
				grp.mask[p.Get(j)][j] |= bit
			}
		}
	}
	return nGroups
}

// forwardLanes runs the float32 forward recurrence for all eight
// haplotypes of grp against one read, returning the per-lane scaled
// likelihood sums. Cell accounting is done by the caller (lane l's
// semantic work is len(read) * lens[l] cells, identical to the scalar
// pass), keeping the kernel's work counters exact.
//
// Each DP row is advanced by three register-blocked sweeps rather
// than one fused loop: a full Lane8 cell update keeps ~10 lane values
// live (~80 floats against amd64's sixteen float registers), which
// spills the carried DP state to the stack every column and erases
// the batching win. The split changes no expression — every sweep
// reads exactly the values the fused loop would have — so results
// stay bit-identical to the scalar reference on amd64:
//
//   - miRow (twice, one Quad half each): M and I have no
//     within-row dependency, so the sweep carries nothing across
//     columns; diagonal predecessors are re-loaded from the previous
//     row, which is L1-resident by construction.
//   - dRow (both halves fused): the D recurrence is a serial
//     multiply-add chain per lane, so one column costs a full
//     latency round-trip no matter the width; running the Lo and Hi
//     chains in one loop overlaps two independent chains while
//     carrying only four quads.
func forwardLanes(read genome.Seq, qual []byte, grp *laneGroup, rows *[6][]float32) lanes.Lane8 {
	m := len(read)
	n := grp.maxN
	if m == 0 || n == 0 {
		return lanes.Lane8{}
	}
	for k := range rows {
		rows[k] = scratch.Grow(rows[k], (n+1)*lanes.Width)
	}
	curM, curI, curD := rows[0], rows[1], rows[2]
	prevM, prevI, prevD := rows[3], rows[4], rows[5]
	var zeroL lanes.Lane8
	for j := 0; j <= n; j++ {
		o := j * lanes.Width
		lanes.Store8(prevM, o, zeroL)
		lanes.Store8(prevI, o, zeroL)
		// Free start anywhere on the haplotype: lane l carries its own
		// scaled initial mass on its own [0, len(hap_l)] columns.
		lanes.Store8(prevD, o, lanes.Blend(grp.live[j], grp.init, zeroL))
	}
	for i := 1; i <= m; i++ {
		err := qualToErr[qual[i-1]]
		priorMatch := float32(1 - err)
		priorMismatch := float32(err / 3)
		rowMask := grp.mask[read[i-1]&3][:n]
		rowLanes(rowMask, priorMatch, priorMismatch,
			prevM, prevI, prevD, curM, curI, curD, n)
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	// Free end on the haplotype: sum M and I across each lane's own
	// final row span, in the scalar path's ascending-j order.
	var sumLo, sumHi, zero lanes.Quad
	for j := 1; j <= n; j++ {
		o := j * lanes.Width
		lb := uint32(grp.live[j])
		miLo := lanes.Load4(prevM, o).Add(lanes.Load4(prevI, o))
		miHi := lanes.Load4(prevM, o+4).Add(lanes.Load4(prevI, o+4))
		sumLo = sumLo.Add(lanes.Sel4(lb, miLo, zero))
		sumHi = sumHi.Add(lanes.Sel4(lb>>4, miHi, zero))
	}
	return lanes.Lane8{Lo: sumLo, Hi: sumHi}
}

// rowQuad advances the M, I and D rows for lanes [base, base+4) of
// one read position. Per-lane arithmetic replays the scalar expression
// in the scalar order (see the package comment's bit-compatibility
// contract). The loop carries only the D chain's two quads (eight
// floats) and re-loads diagonal predecessors from the L1-resident
// previous row, keeping the live set inside amd64's float registers;
// row accesses go through the unchecked Load4U/Store4U forms — the
// caller sized every row to (n+1)*lanes.Width, so offsets up to
// n*lanes.Width+base+3 are in bounds by construction.
// The recurrence exploits two identities of the transition model that
// the scalar reference leaves unexploited: gap-continuation is
// symmetric (tIM == tDM, so tim*pId + tdm*pDd factors to
// tim*(pId+pDd), one multiply instead of two), and the I and D
// updates share their coefficients (tMI == tMD, tII == tDD), which
// shrinks the loop's live constants to four transition scalars plus
// the two priors — small enough that nothing spills. The factoring
// reassociates one addition per cell, which is why the lane contract
// is laneTolerance rather than bit-identity (see that constant's
// derivation).
//
// Every product goes through mul32, which rounds it on its own and,
// on amd64, flushes it to zero exactly as the AVX2 kernel's FTZ mode
// does; the float32 conversion inside mul32 also forbids the arm64
// compiler from fusing a product into an FMA. This is what keeps the
// assembly kernels (which round every product and sum separately)
// bit-identical to this reference.
func rowQuad(rowMask []uint8, priorMatch, priorMismatch float32,
	pPM, pPI, pPD, pCM, pCI, pCD *float32, n, base int) {
	tgo, tge := tmi32, tii32
	// Prior tables with the M-update transition constants folded in:
	// prM[bit] = prior*tMM and prG[bit] = prior*tIM, indexed by the
	// provably in-range match bit. One AND plus two indexed loads per
	// lane replaces a bitwise float select plus two register-resident
	// constants — and those two registers are exactly what keeps the
	// carried DP state from spilling (the loop's live set is at the
	// amd64 float-register limit). Pre-multiplying rounds prior*t once
	// outside the loop, the second reassociation covered by the
	// laneTolerance derivation.
	prM := [2]float32{priorMismatch * tmm32, priorMatch * tmm32}
	prG := [2]float32{priorMismatch * tim32, priorMatch * tim32}
	var zero, lastM, lastD lanes.Quad
	lanes.Store4U(pCM, base, zero)
	lanes.Store4U(pCI, base, zero)
	lanes.Store4U(pCD, base, zero)
	// The sweep is unrolled two columns deep: column j+1's diagonal M/I
	// predecessors are exactly column j's straight-up loads, so the
	// unrolled pair reuses them from registers and skips a quarter of
	// the row loads on top of halving the loop overhead.
	// The only values carried across the loop backedge are the D
	// chain's two quads and the two shared gap constants — ten floats,
	// comfortably inside amd64's fifteen XMM registers. Diagonal M/I
	// predecessors are re-loaded at the top of each unrolled pair (the
	// row is L1-resident); carrying them instead was measured to push
	// the live set past the register file and spill the whole loop.
	o := lanes.Width + base
	j := 1
	for ; j+1 <= n; j += 2 {
		pM := lanes.Load4U(pPM, o-lanes.Width)
		pI := lanes.Load4U(pPI, o-lanes.Width)
		pDd := lanes.Load4U(pPD, o-lanes.Width)
		mb := uint32(rowMask[j-1]) >> base
		g := pI.Add(pDd)
		mj := lanes.Quad{
			A: mul32(pM.A, prM[mb&1]) + mul32(g.A, prG[mb&1]),
			B: mul32(pM.B, prM[mb>>1&1]) + mul32(g.B, prG[mb>>1&1]),
			C: mul32(pM.C, prM[mb>>2&1]) + mul32(g.C, prG[mb>>2&1]),
			D: mul32(pM.D, prM[mb>>3&1]) + mul32(g.D, prG[mb>>3&1]),
		}
		pM = lanes.Load4U(pPM, o)
		pI = lanes.Load4U(pPI, o)
		ij := scaleAdd2(pM, tgo, pI, tge)
		dj := scaleAdd2(lastM, tgo, lastD, tge)
		lanes.Store4U(pCM, o, mj)
		lanes.Store4U(pCI, o, ij)
		lanes.Store4U(pCD, o, dj)

		pDd2 := lanes.Load4U(pPD, o)
		mb2 := uint32(rowMask[j]) >> base
		g2 := pI.Add(pDd2)
		mj2 := lanes.Quad{
			A: mul32(pM.A, prM[mb2&1]) + mul32(g2.A, prG[mb2&1]),
			B: mul32(pM.B, prM[mb2>>1&1]) + mul32(g2.B, prG[mb2>>1&1]),
			C: mul32(pM.C, prM[mb2>>2&1]) + mul32(g2.C, prG[mb2>>2&1]),
			D: mul32(pM.D, prM[mb2>>3&1]) + mul32(g2.D, prG[mb2>>3&1]),
		}
		pM = lanes.Load4U(pPM, o+lanes.Width)
		pI = lanes.Load4U(pPI, o+lanes.Width)
		ij2 := scaleAdd2(pM, tgo, pI, tge)
		dj2 := scaleAdd2(mj, tgo, dj, tge)
		lanes.Store4U(pCM, o+lanes.Width, mj2)
		lanes.Store4U(pCI, o+lanes.Width, ij2)
		lanes.Store4U(pCD, o+lanes.Width, dj2)
		lastM, lastD = mj2, dj2
		o += 2 * lanes.Width
	}
	if j <= n {
		pM := lanes.Load4U(pPM, o-lanes.Width)
		pI := lanes.Load4U(pPI, o-lanes.Width)
		pDd := lanes.Load4U(pPD, o-lanes.Width)
		mb := uint32(rowMask[j-1]) >> base
		g := pI.Add(pDd)
		mj := lanes.Quad{
			A: mul32(pM.A, prM[mb&1]) + mul32(g.A, prG[mb&1]),
			B: mul32(pM.B, prM[mb>>1&1]) + mul32(g.B, prG[mb>>1&1]),
			C: mul32(pM.C, prM[mb>>2&1]) + mul32(g.C, prG[mb>>2&1]),
			D: mul32(pM.D, prM[mb>>3&1]) + mul32(g.D, prG[mb>>3&1]),
		}
		pM = lanes.Load4U(pPM, o)
		pI = lanes.Load4U(pPI, o)
		ij := scaleAdd2(pM, tgo, pI, tge)
		dj := scaleAdd2(lastM, tgo, lastD, tge)
		lanes.Store4U(pCM, o, mj)
		lanes.Store4U(pCI, o, ij)
		lanes.Store4U(pCD, o, dj)
	}
}

// ftzBelow is the flush bound of the amd64 row kernel. Under MXCSR.FTZ
// x86 flushes a result to +0 when it is tiny after rounding: when the
// exact value, rounded to 24 bits with an unbounded exponent, is below
// 2^-126. The largest 24-bit value below 2^-126 is 2^-126 - 2^-150;
// exact values below the midpoint 2^-126 - 2^-151 round down to it,
// and the midpoint itself rounds to even, up to 2^-126. So an exact
// product p flushes iff p < 2^-126 - 2^-151. Comparing the float32
// product against 2^-126 instead would get this boundary wrong:
// (1-2^-24)·2^-126 is flushed by the hardware.
const ftzBelow = 0x1p-126 - 0x1p-151

// mul32 returns the float32 product a*b as this architecture's row
// kernel computes it. The float64 product of two float32 values is
// exact (48 significant bits), so float32(p) is the correctly rounded
// float32 product, and p itself decides the amd64 flush. On other
// architectures the comparison folds away and subnormals are kept.
func mul32(a, b float32) float32 {
	p := float64(a) * float64(b)
	if runtime.GOARCH == "amd64" && p < ftzBelow {
		return 0
	}
	return float32(p)
}

// scaleAdd2 returns a*s + b*t per lane, each product through mul32.
func scaleAdd2(a lanes.Quad, s float32, b lanes.Quad, t float32) lanes.Quad {
	return lanes.Quad{
		A: mul32(a.A, s) + mul32(b.A, t),
		B: mul32(a.B, s) + mul32(b.B, t),
		C: mul32(a.C, s) + mul32(b.C, t),
		D: mul32(a.D, s) + mul32(b.D, t),
	}
}

// evaluateRegionLanes is the lane-batched region evaluation: full
// groups of eight haplotypes per lane pass, the ragged tail and any
// underflowing lanes on the scalar paths. Caller guarantees s != nil
// and len(rg.Haps) >= lanes.Width.
func evaluateRegionLanes(rg *Region, s *Scratch) RegionResult {
	nr, nh := len(rg.Reads), len(rg.Haps)
	var res RegionResult
	s.bestHap = scratch.Grow(s.bestHap, nr)
	s.likelihoods = scratch.Grow(s.likelihoods, nr*nh)
	res.BestHap = s.bestHap
	res.Likelihoods = s.likelihoods
	clear(res.BestHap)
	nGroups := prepareGroups(rg.Haps, s)
	logScale32 := math.Log10(initialScale32)
	for r := 0; r < nr; r++ {
		read, qual := rg.Reads[r], rg.Quals[r]
		m := len(read)
		best := math.Inf(-1)
		for g := 0; g < nGroups; g++ {
			grp := &s.groups[g]
			var sums lanes.Lane8
			if m > 0 {
				sums = forwardLanes(read, qual, grp, &s.laneRows)
			}
			for l := 0; l < lanes.Width; l++ {
				h := g*lanes.Width + l
				nl := grp.lens[l]
				ll := math.Inf(-1)
				if m > 0 && nl > 0 {
					res.CellUpdates += uint64(m) * uint64(nl)
					if v := float64(sums.At(l)); v > underflowThreshold32 && !math.IsInf(v, 0) {
						ll = math.Log10(v) - logScale32
					} else {
						// float32 underflow: scalar float64 fallback,
						// identical to the scalar path's rescue.
						const scale64 = 1e280
						sum64, cells64 := forwardInto(read, qual, rg.Haps[h], scale64, &s.rows64)
						ll = math.Log10(sum64) - math.Log10(scale64)
						res.Fallbacks++
						res.CellUpdates += cells64
					}
				}
				res.Likelihoods[r*nh+h] = ll
				if ll > best {
					best = ll
					res.BestHap[r] = h
				}
			}
		}
		// Ragged tail: the scalar float32 path unchanged.
		for h := nGroups * lanes.Width; h < nh; h++ {
			lr := LikelihoodInto(read, qual, rg.Haps[h], s)
			res.Likelihoods[r*nh+h] = lr.Log10Likelihood
			res.CellUpdates += lr.CellUpdates
			res.ScalarCells += uint64(m) * uint64(len(rg.Haps[h]))
			if lr.UsedDouble {
				res.Fallbacks++
			}
			if lr.Log10Likelihood > best {
				best = lr.Log10Likelihood
				res.BestHap[r] = h
			}
		}
	}
	return res
}
