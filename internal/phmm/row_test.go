package phmm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
)

// TestRowLanesMatchesRowQuad pins the architecture-dispatched row
// kernel (AVX2 assembly on amd64) to the pure-Go quad sweeps,
// bit-for-bit: both replay the same per-lane operations in the same
// rounding order, so there is no tolerance here.
func TestRowLanesMatchesRowQuad(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	priors := func() (float32, float32) { return 1 - rng.Float32()*0.1, rng.Float32() * 0.03 }
	value := func() float32 { return rng.Float32() * 1e3 }
	for trial := 0; trial < 200; trial++ {
		checkRowLanes(t, rng, trial, priors, value)
	}
}

// checkRowLanes runs one random row of up to 67 columns, with DP
// values from value, through rowLanes and through two rowQuad sweeps,
// and fails on the first bit that differs.
func checkRowLanes(t *testing.T, rng *rand.Rand, trial int, priors func() (float32, float32), value func() float32) {
	t.Helper()
	n := 1 + rng.Intn(67)
	w := (n + 1) * lanes.Width
	mk := func() []float32 {
		s := make([]float32, w)
		for i := range s {
			s[i] = value()
		}
		return s
	}
	prevM, prevI, prevD := mk(), mk(), mk()
	mask := make([]uint8, n)
	for i := range mask {
		mask[i] = uint8(rng.Intn(256))
	}
	priorMatch, priorMismatch := priors()

	gotM, gotI, gotD := mk(), mk(), mk()
	rowLanes(mask, priorMatch, priorMismatch,
		prevM, prevI, prevD, gotM, gotI, gotD, n)

	wantM, wantI, wantD := mk(), mk(), mk()
	for base := 0; base <= 4; base += 4 {
		rowQuad(mask, priorMatch, priorMismatch,
			&prevM[0], &prevI[0], &prevD[0],
			&wantM[0], &wantI[0], &wantD[0], n, base)
	}

	for name, pair := range map[string][2][]float32{
		"M": {gotM, wantM}, "I": {gotI, wantI}, "D": {gotD, wantD},
	} {
		got, want := pair[0], pair[1]
		for o := range got {
			if math.Float32bits(got[o]) != math.Float32bits(want[o]) {
				t.Fatalf("trial %d (n=%d, priors %g/%g, asm=%v): row %s[%d] = %x, want %x",
					trial, n, priorMatch, priorMismatch, haveRowAsm, name, o,
					math.Float32bits(got[o]), math.Float32bits(want[o]))
			}
		}
	}
}

// TestRowLanesSimdOffMatches pins GBENCH_SIMD=off and re-runs a full
// lane-batched region evaluation: rowLanes must fall back to the
// portable quad sweeps and produce bit-identical likelihoods to the
// default (assembly on amd64/arm64) dispatch.
func TestRowLanesSimdOffMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	mkSeq := func(n int) genome.Seq {
		s := make(genome.Seq, n)
		for i := range s {
			s[i] = genome.Base(rng.Intn(4))
		}
		return s
	}
	rg := &Region{}
	for h := 0; h < 2*lanes.Width+3; h++ {
		rg.Haps = append(rg.Haps, mkSeq(40+rng.Intn(30)))
	}
	for r := 0; r < 6; r++ {
		seq := mkSeq(20 + rng.Intn(20))
		quals := make([]byte, len(seq))
		for i := range quals {
			quals[i] = byte(10 + rng.Intn(30))
		}
		rg.Reads = append(rg.Reads, seq)
		rg.Quals = append(rg.Quals, quals)
	}
	def := EvaluateRegionInto(rg, NewScratch())
	defLik := append([]float64(nil), def.Likelihoods...)
	restore := cpufeat.ForceForTest("off")
	defer restore()
	off := EvaluateRegionInto(rg, NewScratch())
	if len(defLik) != len(off.Likelihoods) {
		t.Fatalf("likelihood count differs: %d vs %d", len(defLik), len(off.Likelihoods))
	}
	for i := range defLik {
		if math.Float64bits(defLik[i]) != math.Float64bits(off.Likelihoods[i]) {
			t.Fatalf("pair %d: default dispatch %v != GBENCH_SIMD=off %v", i, defLik[i], off.Likelihoods[i])
		}
	}
}

// TestRowLanesFlushToZeroHammer keeps the dispatched row kernel and
// rowQuad bit-identical where the flush acts: DP values drawn
// log-uniform over [2^-126, 2^-86], one in eight zero, and one in
// eight within three ulps of 2^-126/c for a coefficient c the kernel
// multiplies by, so products land on both sides of the flush bound.
// Priors come from Phred Q20..39, as in the suite.
func TestRowLanesFlushToZeroHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var pm, px float32   // this trial's match and mismatch priors
	var coeffs []float32 // every coefficient a DP value is multiplied by
	priors := func() (float32, float32) { return pm, px }
	value := func() float32 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			c := coeffs[rng.Intn(len(coeffs))]
			v, dir := float32(0x1p-126/float64(c)), float32(math.Inf(1))
			if rng.Intn(2) == 0 {
				dir = 0
			}
			for k := rng.Intn(4); k > 0; k-- {
				v = math.Nextafter32(v, dir)
			}
			return v
		}
		return float32(math.Exp2(-126 + 40*rng.Float64()))
	}
	for trial := 0; trial < 300; trial++ {
		err := qualToErr[20+rng.Intn(20)]
		pm, px = float32(1-err), float32(err/3)
		coeffs = []float32{tmi32, tii32, pm * tmm32, px * tmm32, pm * tim32, px * tim32}
		checkRowLanes(t, rng, trial, priors, value)
	}
}

// TestRowLanesFlushToZeroBoundary pins mul32 on the boundary cases of
// x86 tininess-after-rounding. On amd64 a product that rounds below
// 2^-126 is +0 — including (1-2^-24)·2^-126, whose exact value is a
// float32 with an unbounded exponent — while one that rounds up to
// 2^-126 is kept. Elsewhere mul32 is the IEEE float32 product.
func TestRowLanesFlushToZeroBoundary(t *testing.T) {
	const below1 = 1 - 0x1p-24 // largest float32 below 1
	cases := []struct {
		a, b, ftz float32
	}{
		{below1, 0x1p-126, 0},
		{below1, 0x1p-126 * (1 + 0x1p-23), 0x1p-126},
		{0.5, 0x1p-126, 0},
		{1, 0x1p-126, 0x1p-126},
	}
	for _, c := range cases {
		want := c.ftz
		if runtime.GOARCH != "amd64" {
			want = mulNoFold(c.a, c.b)
		}
		if got := mul32(c.a, c.b); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("mul32(%g, %g) = %g (%x), want %g (%x)",
				c.a, c.b, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

// mulNoFold is a float32 product the compiler cannot fold to a
// constant, so it runs under the thread's MXCSR.
//
//go:noinline
func mulNoFold(a, b float32) float32 { return a * b }

// TestRowLanesFlushToZeroRestoresMXCSR: the kernel's flush mode does
// not outlive the call. Pinned to one OS thread, a Go product taken
// right after rowLanes returns must still produce the subnormal
// 2^-126 · 0.5 = 2^-127.
func TestRowLanesFlushToZeroRestoresMXCSR(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = 16
	row := func(v float32) []float32 {
		s := make([]float32, (n+1)*lanes.Width)
		for i := range s {
			s[i] = v
		}
		return s
	}
	mask := make([]uint8, n)
	rowLanes(mask, 0.99, 0.003, row(0x1p-126), row(0x1p-126), row(0x1p-126), row(0), row(0), row(0), n)
	if got := mulNoFold(0x1p-126, 0.5); math.Float32bits(got) != math.Float32bits(0x1p-127) {
		t.Fatalf("2^-126 * 0.5 after rowLanes = %g (%x), want 2^-127: flush-to-zero leaked out of the kernel",
			got, math.Float32bits(got))
	}
}
