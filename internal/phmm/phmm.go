// Package phmm implements the Pairwise Hidden Markov Model kernel from
// GATK HaplotypeCaller: the forward-algorithm likelihood of a read
// given a candidate haplotype, computed with quality-dependent priors
// in single-precision floating point with a double-precision fallback
// when the 32-bit computation underflows — exactly the precision
// strategy the paper describes for phmm.
package phmm

import (
	"context"
	"math"

	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/scratch"
)

// Transition probabilities follow GATK's defaults: gap-open quality 45
// for insertions and deletions, gap-continuation penalty 10.
var (
	gapOpen = math.Pow(10, -4.5) // P(match -> ins) = P(match -> del)
	gapExt  = math.Pow(10, -1)   // P(ins -> ins) = P(del -> del)

	tMM = 1 - 2*gapOpen
	tMI = gapOpen
	tMD = gapOpen
	tIM = 1 - gapExt
	tII = gapExt
	tDM = 1 - gapExt
	tDD = gapExt
)

// qualToErr[q] is the base error probability for Phred quality q.
var qualToErr [94]float64

func init() {
	for q := range qualToErr {
		qualToErr[q] = math.Pow(10, -float64(q)/10)
	}
}

// Float is the precision parameter of the forward computation.
type Float interface {
	~float32 | ~float64
}

// initialScale32 rescales the float32 computation away from the
// subnormal range, mirroring GATK's INITIAL_CONDITION.
const initialScale32 = float64(1<<62) * float64(1<<58) // 2^120

// underflowThreshold32 marks results too small to trust in float32.
const underflowThreshold32 = 1e-28

// forward runs the PairHMM forward algorithm in precision F and
// returns the raw (scaled) likelihood sum plus the number of DP cells
// computed.
func forward[F Float](read genome.Seq, qual []byte, hap genome.Seq, scale float64) (F, uint64) {
	var rows [6][]F
	return forwardInto(read, qual, hap, scale, &rows)
}

// forwardInto is forward computing into six caller-owned DP rows, each
// grown in place and reused across calls. The cur rows are fully
// overwritten every row; the prev rows are reinitialized here, so
// stale contents never leak into the recurrence.
func forwardInto[F Float](read genome.Seq, qual []byte, hap genome.Seq, scale float64, rows *[6][]F) (F, uint64) {
	m := len(read)
	n := len(hap)
	if m == 0 || n == 0 {
		return 0, 0
	}
	// Row-wise DP over the read; columns are haplotype positions.
	for k := range rows {
		rows[k] = scratch.Grow(rows[k], n+1)
	}
	curM, curI, curD := rows[0], rows[1], rows[2]
	prevM, prevI, prevD := rows[3], rows[4], rows[5]
	clear(prevM)
	clear(prevI)

	// Free start anywhere on the haplotype: D row 0 carries the scaled
	// initial mass.
	init := F(scale / float64(n))
	for j := 0; j <= n; j++ {
		prevD[j] = init
	}

	tmm := F(tMM)
	tmi := F(tMI)
	tmd := F(tMD)
	tim := F(tIM)
	tii := F(tII)
	tdm := F(tDM)
	tdd := F(tDD)

	var cells uint64
	for i := 1; i <= m; i++ {
		err := qualToErr[qual[i-1]]
		priorMatch := F(1 - err)
		priorMismatch := F(err / 3)
		rb := read[i-1]
		curM[0] = 0
		curI[0] = 0
		curD[0] = 0
		for j := 1; j <= n; j++ {
			cells++
			prior := priorMismatch
			if hap[j-1] == rb {
				prior = priorMatch
			}
			curM[j] = prior * (tmm*prevM[j-1] + tim*prevI[j-1] + tdm*prevD[j-1])
			curI[j] = tmi*prevM[j] + tii*prevI[j]
			curD[j] = tmd*curM[j-1] + tdd*curD[j-1]
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	// Free end on the haplotype: sum M and I across the last row.
	var sum F
	for j := 1; j <= n; j++ {
		sum += prevM[j] + prevI[j]
	}
	return sum, cells
}

// Result reports one read-haplotype likelihood evaluation.
type Result struct {
	Log10Likelihood float64
	UsedDouble      bool   // float32 underflowed; recomputed in float64
	CellUpdates     uint64 // includes any fallback recomputation
}

// Likelihood computes log10 P(read | haplotype), attempting float32
// first and falling back to float64 on underflow.
func Likelihood(read genome.Seq, qual []byte, hap genome.Seq) Result {
	if len(read) == 0 || len(hap) == 0 {
		return Result{Log10Likelihood: math.Inf(-1)}
	}
	sum32, cells := forward[float32](read, qual, hap, initialScale32)
	if s := float64(sum32); s > underflowThreshold32 && !math.IsInf(s, 0) {
		return Result{
			Log10Likelihood: math.Log10(s) - math.Log10(initialScale32),
			CellUpdates:     cells,
		}
	}
	const scale64 = 1e280
	sum64, cells64 := forward[float64](read, qual, hap, scale64)
	return Result{
		Log10Likelihood: math.Log10(sum64) - math.Log10(scale64),
		UsedDouble:      true,
		CellUpdates:     cells + cells64,
	}
}

// Scratch holds the grow-only working storage for pooled phmm
// evaluation: the six DP rows for each precision plus the per-region
// output slices. One Scratch per worker; not safe for concurrent use.
// Slices inside a RegionResult produced by EvaluateRegionInto remain
// valid only until the next call with the same Scratch.
type Scratch struct {
	rows32      [6][]float32
	rows64      [6][]float64
	bestHap     []int
	likelihoods []float64

	// Lane-batched state (lanes.go): grouped haplotype layouts, the
	// per-lane packed haplotype words, and the lane DP rows — flat
	// float32 with a stride of lanes.Width per column, swept four
	// lanes at a time (see forwardQuad).
	groups   []laneGroup
	packs    [lanes.Width][]uint64
	laneRows [6][]float32
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// LikelihoodInto is Likelihood using s's reusable DP rows. A nil s
// falls back to the allocating path. Results are bit-identical to
// Likelihood.
func LikelihoodInto(read genome.Seq, qual []byte, hap genome.Seq, s *Scratch) Result {
	if s == nil {
		return Likelihood(read, qual, hap)
	}
	if len(read) == 0 || len(hap) == 0 {
		return Result{Log10Likelihood: math.Inf(-1)}
	}
	sum32, cells := forwardInto(read, qual, hap, initialScale32, &s.rows32)
	if v := float64(sum32); v > underflowThreshold32 && !math.IsInf(v, 0) {
		return Result{
			Log10Likelihood: math.Log10(v) - math.Log10(initialScale32),
			CellUpdates:     cells,
		}
	}
	const scale64 = 1e280
	sum64, cells64 := forwardInto(read, qual, hap, scale64, &s.rows64)
	return Result{
		Log10Likelihood: math.Log10(sum64) - math.Log10(scale64),
		UsedDouble:      true,
		CellUpdates:     cells + cells64,
	}
}

// Region is one independent task: the reads aligned to a genome window
// and the candidate haplotypes assembled for it. The kernel evaluates
// all |R| x |H| pairs.
type Region struct {
	Reads []genome.Seq
	Quals [][]byte
	Haps  []genome.Seq
}

// RegionResult carries per-region outputs.
type RegionResult struct {
	// BestHap[r] is the index of the maximum-likelihood haplotype for
	// read r.
	BestHap []int
	// Likelihoods[r*|H|+h] is log10 P(read r | hap h).
	Likelihoods []float64
	CellUpdates uint64
	Fallbacks   int
}

// EvaluateRegion runs all pairwise alignments of one region.
func EvaluateRegion(rg *Region) RegionResult {
	return EvaluateRegionScalarInto(rg, nil)
}

// EvaluateRegionInto is EvaluateRegion computing into s's reusable
// storage; the returned slices are owned by s and valid until the next
// call. A nil s allocates fresh output slices. Regions with at least
// eight haplotypes take the lane-batched forward pass (lanes.go):
// results match the scalar reference within laneTolerance per
// likelihood (bit-identical on amd64) with exact cell counters.
func EvaluateRegionInto(rg *Region, s *Scratch) RegionResult {
	if s != nil && len(rg.Haps) >= lanes.Width {
		return evaluateRegionLanes(rg, s)
	}
	return EvaluateRegionScalarInto(rg, s)
}

// EvaluateRegionScalarInto is the scalar reference path: one forward
// pass per (read, haplotype) pair. It backs the lane path's
// differential tests and serves as the baseline side of the
// phmm/lanes benchmark pair.
func EvaluateRegionScalarInto(rg *Region, s *Scratch) RegionResult {
	nr, nh := len(rg.Reads), len(rg.Haps)
	var res RegionResult
	if s != nil {
		s.bestHap = scratch.Grow(s.bestHap, nr)
		s.likelihoods = scratch.Grow(s.likelihoods, nr*nh)
		res.BestHap = s.bestHap
		res.Likelihoods = s.likelihoods
		clear(res.BestHap)
	} else {
		res.BestHap = make([]int, nr)
		res.Likelihoods = make([]float64, nr*nh)
	}
	for r := 0; r < nr; r++ {
		best := math.Inf(-1)
		for h := 0; h < nh; h++ {
			lr := LikelihoodInto(rg.Reads[r], rg.Quals[r], rg.Haps[h], s)
			res.Likelihoods[r*nh+h] = lr.Log10Likelihood
			res.CellUpdates += lr.CellUpdates
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

// KernelResult aggregates a phmm benchmark execution.
type KernelResult struct {
	Regions     int
	Pairs       int
	CellUpdates uint64
	Fallbacks   int
	// Digest sums a hash of every read's (region, read, BestHap,
	// likelihoods) modulo 2^52, so it is exact in a float64 and does
	// not depend on block layout, thread count or dispatch order.
	Digest    uint64
	TaskStats *perf.TaskStats
	Counters  perf.Counters
}

// RunKernel evaluates all regions with dynamic scheduling. A region is
// the accounting unit, matching the paper's genome-region parallelism
// granularity for phmm: TaskStats holds one observation per region.
// The scheduling unit is a block of a region's reads (see planBlocks).
// It panics on failure; cancellable callers use RunKernelCtx.
func RunKernel(regions []*Region, threads int) KernelResult {
	res, err := RunKernelCtx(context.Background(), regions, threads)
	if err != nil {
		panic(err)
	}
	return res
}

// RunKernelCtx is RunKernel with cooperative cancellation and a fault
// trip-point per read block.
func RunKernelCtx(ctx context.Context, regions []*Region, threads int) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	blocks := planBlocks(regions, threads)
	pool := scratch.PoolFrom(ctx) // nil pool hands out fresh scratch
	scratches := make([]*Scratch, threads)
	for i := range scratches {
		scratches[i] = pool.WorkerState(i, func() any { return NewScratch() }).(*Scratch)
	}
	err := parallel.ForEachCtxErr(ctx, len(blocks), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		b := &blocks[i]
		rg := regions[b.region]
		view := Region{Reads: rg.Reads[b.lo:b.hi], Quals: rg.Quals[b.lo:b.hi], Haps: rg.Haps}
		r := EvaluateRegionInto(&view, scratches[w])
		var digest uint64
		for k := range r.BestHap {
			digest += readDigest(b.region, b.lo+k, r.BestHap[k], r.Likelihoods[k*len(rg.Haps):(k+1)*len(rg.Haps)])
		}
		b.cells, b.fallbacks, b.digest = r.CellUpdates, r.Fallbacks, digest
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{Regions: len(regions), TaskStats: perf.NewTaskStats("cell updates")}
	regionCells := make([]uint64, len(regions))
	for _, b := range blocks {
		regionCells[b.region] += b.cells
		res.CellUpdates += b.cells
		res.Fallbacks += b.fallbacks
		res.Digest += b.digest
	}
	res.Digest &= 1<<52 - 1
	for i, rg := range regions {
		res.Pairs += len(rg.Reads) * len(rg.Haps)
		res.TaskStats.Observe(float64(regionCells[i]))
	}
	// phmm is the suite's floating-point kernel: each cell is ~9 FP
	// multiply-adds, vectorized in the original.
	res.Counters.Add(perf.FloatOp, res.CellUpdates*3)
	res.Counters.Add(perf.VecOp, res.CellUpdates*6)
	res.Counters.Add(perf.Load, res.CellUpdates*2)
	res.Counters.Add(perf.Store, res.CellUpdates)
	res.Counters.Add(perf.Branch, res.CellUpdates/8)
	return res, nil
}

// block is RunKernelCtx's scheduling unit, reads [lo, hi) of one
// region against all of its haplotypes, with the outputs its task
// fills in.
type block struct {
	region, lo, hi int
	cells          uint64
	fallbacks      int
	digest         uint64
}

// planBlocks lays the regions out as read blocks, in region order.
// Per-(read, haplotype) likelihoods are independent, so the layout is
// pure scheduling and outputs are bit-identical to one block per
// region. A region whose estimated cost (Σ read length × Σ haplotype
// length) exceeds 1/(8·threads) of the kernel's total is cut into
// equal-count blocks of about that cost, so that one giant region no
// longer bounds the kernel's wall time. Nothing is split at one thread.
func planBlocks(regions []*Region, threads int) []block {
	costs := make([]float64, len(regions))
	var total float64
	for i, rg := range regions {
		var readLen, hapLen int
		for _, r := range rg.Reads {
			readLen += len(r)
		}
		for _, h := range rg.Haps {
			hapLen += len(h)
		}
		costs[i] = float64(readLen) * float64(hapLen)
		total += costs[i]
	}
	target := total / float64(8*threads)
	blocks := make([]block, 0, len(regions))
	for i, rg := range regions {
		nr, n := len(rg.Reads), 1
		if threads > 1 && costs[i] > target {
			n = min(int(math.Ceil(costs[i]/target)), nr)
		}
		for k := 0; k < n; k++ {
			blocks = append(blocks, block{region: i, lo: k * nr / n, hi: (k + 1) * nr / n})
		}
	}
	return blocks
}

// readDigest hashes one read's outputs: its position, its
// maximum-likelihood haplotype and the bits of every likelihood.
func readDigest(region, read, best int, likelihoods []float64) uint64 {
	h := mix64(uint64(region)<<32 ^ uint64(read))
	h = mix64(h ^ uint64(best))
	for _, ll := range likelihoods {
		h = mix64(h ^ math.Float64bits(ll))
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
