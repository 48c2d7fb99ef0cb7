// Package lanes provides fixed-width float32 lane vectors for the
// suite's floating-point DP kernels. A Lane8 holds eight independent
// DP problems side by side — eight haplotypes of one read in phmm,
// eight band cells in abea — so one pass of the inner loop advances
// all of them at once. This is the inter-task vectorization the
// upstream tools (GATK's AVX PairHMM, f5c's per-band lanes) win their
// speedups with, expressed in portable Go: every helper is an explicit
// eight-element expression, fully unrolled by construction and
// branch-free, sized to inline into the kernels' inner loops.
//
// Layout note: Lane8 is a nested struct of two four-float quads, not
// a [8]float32. The Go compiler only SSA-decomposes structs of at
// most four fields (recursively) — arrays and wider structs live in
// memory, which would force every intermediate lane value through a
// stack slot. The quad nesting keeps whole DP cell updates in
// registers; A/B/.../H of Lo then Hi are lanes 0..7. The fields are
// exported so kernels can hand-schedule a cell update when the method
// chain would exceed the inliner's budget.
//
// Two properties the DP kernels rely on:
//
//   - Per-lane arithmetic is EXACTLY the scalar expression: lane l of
//     a.Mul(b) is a_l*b_l, with no reassociation, no fused
//     multiply-add, and no widening. Any rounding difference against a
//     scalar reference comes from the KERNEL's own restructuring (a
//     factored recurrence, an FMA emitted by the compiler on arm64),
//     never from these helpers; each kernel documents its resulting
//     tolerance and asserts it in a differential test (see
//     internal/phmm and internal/abea).
//   - Blend and Pick2 select through float bit masks (integer and/or
//     on Float32bits), not branches or table loads, so selection cost
//     is data-independent and the selected value is bit-exactly one of
//     the two inputs.
//   - LogSumExpApprox trades exactness for a committed error bound:
//     the pairwise log-sum-exp is within LogSumExpMaxError of
//     math.Log(exp(a)+exp(b)) (natural log), verified over the
//     approximation table's domain by the package tests.
package lanes

import (
	"math"
	"unsafe"
)

// Width is the lane count. Eight float32 values fill two SSE registers
// (or one AVX register); it is also GATK's AVX-float PairHMM batch
// width, which is why phmm groups haplotypes by eight.
const Width = 8

// Quad is four float32 lanes; two quads nest into a Lane8. Four fields
// is the compiler's struct SSA-decomposition limit, which is the whole
// reason this is not a flat eight-field struct or an array.
//
// Quad also carries its own arithmetic method set: a kernel whose cell
// update keeps too many Lane8 values live (amd64 has sixteen float
// registers and every lane costs one) can register-block the pass as
// two Quad sweeps — same lane grouping, half the live floats. The phmm
// forward pass does exactly this.
type Quad struct {
	A, B, C, D float32
}

// Load4 gathers four consecutive values s[i..i+4) into a Quad.
func Load4(s []float32, i int) Quad {
	_ = s[i+3]
	return Quad{s[i], s[i+1], s[i+2], s[i+3]}
}

// Store4 scatters q into s[i..i+4).
func Store4(s []float32, i int, q Quad) {
	_ = s[i+3]
	s[i] = q.A
	s[i+1] = q.B
	s[i+2] = q.C
	s[i+3] = q.D
}

// Load4U and Store4U are the unchecked forms of Load4/Store4 for the
// kernels' innermost loops, where the per-call bounds check is a
// measurable fraction of a DP column's budget (the rows are sized
// once per pass, so every in-loop check re-proves the same fact).
// p is the base of the row (&row[0]) and i the float offset; the
// CALLER owns the proof that i+4 <= len(row). Everything outside a
// kernel's inner loop uses the checked forms.

// Load4U gathers four consecutive floats at p[i..i+4) without bounds
// checks.
func Load4U(p *float32, i int) Quad {
	q := (*[4]float32)(unsafe.Add(unsafe.Pointer(p), uintptr(i)*4))
	return Quad{q[0], q[1], q[2], q[3]}
}

// Store4U scatters q into p[i..i+4) without bounds checks.
func Store4U(p *float32, i int, q Quad) {
	d := (*[4]float32)(unsafe.Add(unsafe.Pointer(p), uintptr(i)*4))
	d[0] = q.A
	d[1] = q.B
	d[2] = q.C
	d[3] = q.D
}

// Add returns a + b element-wise.
func (a Quad) Add(b Quad) Quad {
	return Quad{a.A + b.A, a.B + b.B, a.C + b.C, a.D + b.D}
}

// Mul returns a * b element-wise.
func (a Quad) Mul(b Quad) Quad {
	return Quad{a.A * b.A, a.B * b.B, a.C * b.C, a.D * b.D}
}

// Sub returns a - b element-wise.
func (a Quad) Sub(b Quad) Quad {
	return Quad{a.A - b.A, a.B - b.B, a.C - b.C, a.D - b.D}
}

// Div returns a / b element-wise. No reciprocal approximation: each
// lane performs the same IEEE division the scalar code would.
func (a Quad) Div(b Quad) Quad {
	return Quad{a.A / b.A, a.B / b.B, a.C / b.C, a.D / b.D}
}

// Scale returns a * s with a scalar broadcast to every lane.
func (a Quad) Scale(s float32) Quad {
	return Quad{a.A * s, a.B * s, a.C * s, a.D * s}
}

// Max returns the element-wise maximum with the first-operand-wins
// tie convention of the scalar cores.
func (a Quad) Max(b Quad) Quad {
	return Quad{maxf(a.A, b.A), maxf(a.B, b.B), maxf(a.C, b.C), maxf(a.D, b.D)}
}

// Sel4 selects per lane through the low four bits of mask: lane l is
// on_l when bit l is set, off_l otherwise.
func Sel4(mask uint32, on, off Quad) Quad {
	return Quad{
		Sel(mask&1, on.A, off.A), Sel(mask>>1&1, on.B, off.B),
		Sel(mask>>2&1, on.C, off.C), Sel(mask>>3&1, on.D, off.D),
	}
}

// Pick4 broadcasts a two-value choice through the low four mask bits.
func Pick4(mask uint32, on, off float32) Quad {
	return Quad{
		Sel(mask&1, on, off), Sel(mask>>1&1, on, off),
		Sel(mask>>2&1, on, off), Sel(mask>>3&1, on, off),
	}
}

// Lane8 is a vector of eight independent float32 DP states: lanes 0-3
// in Lo.A..Lo.D, lanes 4-7 in Hi.A..Hi.D.
type Lane8 struct {
	Lo, Hi Quad
}

// Splat returns a lane vector with x in every lane.
func Splat(x float32) Lane8 {
	return Lane8{Quad{x, x, x, x}, Quad{x, x, x, x}}
}

// FromArray builds a Lane8 from the array form (lane l = a[l]).
func FromArray(a [Width]float32) Lane8 {
	return Lane8{Quad{a[0], a[1], a[2], a[3]}, Quad{a[4], a[5], a[6], a[7]}}
}

// Array returns the lanes in array form (for tests and cold paths).
func (a Lane8) Array() [Width]float32 {
	return [Width]float32{a.Lo.A, a.Lo.B, a.Lo.C, a.Lo.D, a.Hi.A, a.Hi.B, a.Hi.C, a.Hi.D}
}

// At returns lane l. Cold-path accessor: results extraction, tests.
func (a Lane8) At(l int) float32 {
	switch l {
	case 0:
		return a.Lo.A
	case 1:
		return a.Lo.B
	case 2:
		return a.Lo.C
	case 3:
		return a.Lo.D
	case 4:
		return a.Hi.A
	case 5:
		return a.Hi.B
	case 6:
		return a.Hi.C
	}
	return a.Hi.D
}

// Load8 gathers eight consecutive values s[i..i+8) into a Lane8.
func Load8(s []float32, i int) Lane8 {
	_ = s[i+7]
	return Lane8{
		Quad{s[i], s[i+1], s[i+2], s[i+3]},
		Quad{s[i+4], s[i+5], s[i+6], s[i+7]},
	}
}

// Store8 scatters a into s[i..i+8).
func Store8(s []float32, i int, a Lane8) {
	_ = s[i+7]
	s[i] = a.Lo.A
	s[i+1] = a.Lo.B
	s[i+2] = a.Lo.C
	s[i+3] = a.Lo.D
	s[i+4] = a.Hi.A
	s[i+5] = a.Hi.B
	s[i+6] = a.Hi.C
	s[i+7] = a.Hi.D
}

// Add returns a + b element-wise.
func (a Lane8) Add(b Lane8) Lane8 {
	return Lane8{
		Quad{a.Lo.A + b.Lo.A, a.Lo.B + b.Lo.B, a.Lo.C + b.Lo.C, a.Lo.D + b.Lo.D},
		Quad{a.Hi.A + b.Hi.A, a.Hi.B + b.Hi.B, a.Hi.C + b.Hi.C, a.Hi.D + b.Hi.D},
	}
}

// Mul returns a * b element-wise.
func (a Lane8) Mul(b Lane8) Lane8 {
	return Lane8{
		Quad{a.Lo.A * b.Lo.A, a.Lo.B * b.Lo.B, a.Lo.C * b.Lo.C, a.Lo.D * b.Lo.D},
		Quad{a.Hi.A * b.Hi.A, a.Hi.B * b.Hi.B, a.Hi.C * b.Hi.C, a.Hi.D * b.Hi.D},
	}
}

// Sub returns a - b element-wise.
func (a Lane8) Sub(b Lane8) Lane8 {
	return Lane8{
		Quad{a.Lo.A - b.Lo.A, a.Lo.B - b.Lo.B, a.Lo.C - b.Lo.C, a.Lo.D - b.Lo.D},
		Quad{a.Hi.A - b.Hi.A, a.Hi.B - b.Hi.B, a.Hi.C - b.Hi.C, a.Hi.D - b.Hi.D},
	}
}

// Div returns a / b element-wise.
func (a Lane8) Div(b Lane8) Lane8 {
	return Lane8{
		Quad{a.Lo.A / b.Lo.A, a.Lo.B / b.Lo.B, a.Lo.C / b.Lo.C, a.Lo.D / b.Lo.D},
		Quad{a.Hi.A / b.Hi.A, a.Hi.B / b.Hi.B, a.Hi.C / b.Hi.C, a.Hi.D / b.Hi.D},
	}
}

// Scale returns a * s with a scalar broadcast to every lane.
func (a Lane8) Scale(s float32) Lane8 {
	return Lane8{
		Quad{a.Lo.A * s, a.Lo.B * s, a.Lo.C * s, a.Lo.D * s},
		Quad{a.Hi.A * s, a.Hi.B * s, a.Hi.C * s, a.Hi.D * s},
	}
}

// AddS returns a + s with a scalar broadcast to every lane.
func (a Lane8) AddS(s float32) Lane8 {
	return Lane8{
		Quad{a.Lo.A + s, a.Lo.B + s, a.Lo.C + s, a.Lo.D + s},
		Quad{a.Hi.A + s, a.Hi.B + s, a.Hi.C + s, a.Hi.D + s},
	}
}

// maxf is the scalar two-way max with the DP kernels' tie convention:
// the FIRST operand wins ties (and NaN in b never replaces a), exactly
// the `v := stay; if step > v { v = step }` shape of the scalar cores.
func maxf(a, b float32) float32 {
	if b > a {
		return b
	}
	return a
}

// Max returns the element-wise maximum; lane l is a_l unless
// b_l > a_l, matching the scalar cores' strict-greater updates.
func (a Lane8) Max(b Lane8) Lane8 {
	return Lane8{
		Quad{maxf(a.Lo.A, b.Lo.A), maxf(a.Lo.B, b.Lo.B), maxf(a.Lo.C, b.Lo.C), maxf(a.Lo.D, b.Lo.D)},
		Quad{maxf(a.Hi.A, b.Hi.A), maxf(a.Hi.B, b.Hi.B), maxf(a.Hi.C, b.Hi.C), maxf(a.Hi.D, b.Hi.D)},
	}
}

// Sel selects one of two float32 values through a 0/1 bit without a
// branch or a table load: the bit is widened to an all-ones/all-zeros
// mask and applied to the float bit patterns, so the result is
// bit-exactly on (bit==1) or off (bit==0). This is the primitive the
// kernels' hand-scheduled blends are built from.
func Sel(bit uint32, on, off float32) float32 {
	msk := -bit // 0 or 0xffffffff
	return math.Float32frombits(math.Float32bits(on)&msk | math.Float32bits(off)&^msk)
}

// Blend selects per lane by mask bit: lane l is on_l when bit l of
// mask is set, off_l otherwise.
func Blend(mask uint8, on, off Lane8) Lane8 {
	m := uint32(mask)
	return Lane8{
		Quad{
			Sel(m&1, on.Lo.A, off.Lo.A), Sel(m>>1&1, on.Lo.B, off.Lo.B),
			Sel(m>>2&1, on.Lo.C, off.Lo.C), Sel(m>>3&1, on.Lo.D, off.Lo.D),
		},
		Quad{
			Sel(m>>4&1, on.Hi.A, off.Hi.A), Sel(m>>5&1, on.Hi.B, off.Hi.B),
			Sel(m>>6&1, on.Hi.C, off.Hi.C), Sel(m>>7&1, on.Hi.D, off.Hi.D),
		},
	}
}

// Pick2 broadcasts a two-value choice through a lane mask: lane l is
// on when bit l of mask is set, off otherwise. It is Blend for the
// common case where both sides are scalars — phmm's per-cell
// match/mismatch emission prior.
func Pick2(mask uint8, on, off float32) Lane8 {
	m := uint32(mask)
	return Lane8{
		Quad{Sel(m&1, on, off), Sel(m>>1&1, on, off), Sel(m>>2&1, on, off), Sel(m>>3&1, on, off)},
		Quad{Sel(m>>4&1, on, off), Sel(m>>5&1, on, off), Sel(m>>6&1, on, off), Sel(m>>7&1, on, off)},
	}
}

// HMax returns the horizontal maximum and the index of its FIRST
// occurrence, scanning lanes in ascending order with strict-greater
// updates — the same tie convention as the scalar band cores, so a
// lane-blocked argmax lands on the same cell as the scalar sweep.
func (a Lane8) HMax() (m float32, arg int) {
	arr := a.Array()
	m = arr[0]
	for l := 1; l < Width; l++ {
		if arr[l] > m {
			m, arg = arr[l], l
		}
	}
	return m, arg
}

// HSum returns the horizontal sum in ascending lane order.
func (a Lane8) HSum() float32 {
	return ((a.Lo.A + a.Lo.B) + (a.Lo.C + a.Lo.D)) + ((a.Hi.A + a.Hi.B) + (a.Hi.C + a.Hi.D))
}

// ---- log-sum-exp approximation ----

// The float DP kernels occasionally need log(exp(a)+exp(b)) — the
// sum-product counterpart of the Viterbi max in log space. The exact
// form costs an exp and a log1p per lane; the approximation below
// replaces both with one 256-entry table lookup plus a linear
// interpolation of f(d) = log(1+exp(-d)) on d in [0, lseCutoff],
// clamping to 0 beyond the cutoff where f < 2^-24 is unrepresentable
// against |max| anyway.

const (
	// lseCutoff is where f(d) drops below float32 significance.
	lseCutoff = 17.0
	// lseSteps is the interpolation table resolution.
	lseSteps = 256
	// LogSumExpMaxError is the committed absolute error bound of
	// LogSumExpApprox against the exact math.Log(math.Exp(a)+math.Exp(b)),
	// in natural-log units. The table's linear-interpolation error is
	// bounded by max f''·h²/8 = (1/4)·(17/256)²/8 ≈ 1.4e-4; the commit
	// rounds up for float32 evaluation noise. Verified by
	// TestLogSumExpErrorBound over a dense grid of lane pairs.
	LogSumExpMaxError = 5e-4
)

// lseTable[i] = log(1 + exp(-i·h)) for h = lseCutoff/lseSteps,
// built once at init from the float64 reference.
var lseTable [lseSteps + 1]float32

func init() {
	h := lseCutoff / float64(lseSteps)
	for i := range lseTable {
		lseTable[i] = float32(log1pexpRef(float64(i) * h))
	}
}

// log1pexpRef is the float64 reference for log(1+exp(-d)), d >= 0.
func log1pexpRef(d float64) float64 {
	// Direct form is stable for d >= 0.
	return math.Log1p(math.Exp(-d))
}

// log1pexp32 approximates log(1+exp(-d)) for d >= 0 by linear
// interpolation of lseTable; exact 0 beyond the cutoff.
func log1pexp32(d float32) float32 {
	const scale = float32(lseSteps) / float32(lseCutoff)
	x := d * scale
	i := int(x)
	if i >= lseSteps {
		return 0
	}
	frac := x - float32(i)
	lo := lseTable[i]
	return lo + frac*(lseTable[i+1]-lo)
}

// LogSumExp1 is the scalar pairwise log-sum-exp approximation:
// log(exp(a)+exp(b)) within LogSumExpMaxError, computed as
// max(a,b) + f(|a-b|) with the table-interpolated f. Infinities
// degrade gracefully: if either side is -Inf the other is returned.
func LogSumExp1(a, b float32) float32 {
	m, d := a, a-b
	if b > a {
		m, d = b, b-a
	}
	if d != d || d > lseCutoff { // NaN (from inf-inf) or negligible tail
		return m
	}
	return m + log1pexp32(d)
}

// LogSumExpApprox returns the element-wise pairwise log-sum-exp
// approximation of two lanes, each lane within LogSumExpMaxError of
// the exact value.
func LogSumExpApprox(a, b Lane8) Lane8 {
	return Lane8{
		Quad{
			LogSumExp1(a.Lo.A, b.Lo.A), LogSumExp1(a.Lo.B, b.Lo.B),
			LogSumExp1(a.Lo.C, b.Lo.C), LogSumExp1(a.Lo.D, b.Lo.D),
		},
		Quad{
			LogSumExp1(a.Hi.A, b.Hi.A), LogSumExp1(a.Hi.B, b.Hi.B),
			LogSumExp1(a.Hi.C, b.Hi.C), LogSumExp1(a.Hi.D, b.Hi.D),
		},
	}
}
