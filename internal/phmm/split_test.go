package phmm

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/perf"
)

// giantRegion builds a region that dominates a kernel's cost: twelve
// haplotypes, so a full lane group plus a scalar tail, and reads that
// are half slices of a haplotype and half unrelated sequence (whose
// float32 likelihoods underflow into the float64 fallback).
func giantRegion(rng *rand.Rand, reads int) *Region {
	base := genome.Random(rng, 220)
	rg := &Region{}
	for h := 0; h < 12; h++ {
		hap := base.Clone()
		for m := 0; m < h; m++ {
			hap[rng.Intn(len(hap))] = genome.Base(rng.Intn(4))
		}
		rg.Haps = append(rg.Haps, hap[:len(hap)-rng.Intn(40)])
	}
	for r := 0; r < reads; r++ {
		rl := 40 + rng.Intn(40)
		read := genome.Random(rng, rl)
		if r%2 == 0 {
			start := rng.Intn(len(base) - rl - 40)
			read = base[start : start+rl].Clone()
		}
		rg.Reads = append(rg.Reads, read)
		rg.Quals = append(rg.Quals, uniformQual(rl, 20+byte(r%20)))
	}
	return rg
}

// giantIndex is splitFixture's index of its giant region.
const giantIndex = 3

// splitFixture is one giant region among small scalar-path regions.
func splitFixture() []*Region {
	rng := rand.New(rand.NewSource(31))
	var regions []*Region
	for i := 0; i < 7; i++ {
		if i == giantIndex {
			regions = append(regions, giantRegion(rng, 48))
		} else {
			regions = append(regions, randomRegion(rng, 2+rng.Intn(5), 2+rng.Intn(4)))
		}
	}
	return regions
}

// unsplitReference evaluates each region whole, outside RunKernelCtx,
// and derives the aggregates RunKernelCtx must report.
func unsplitReference(regions []*Region) KernelResult {
	ref := KernelResult{Regions: len(regions), TaskStats: perf.NewTaskStats("cell updates")}
	for i, rg := range regions {
		r := EvaluateRegionInto(rg, NewScratch())
		ref.Pairs += len(rg.Reads) * len(rg.Haps)
		ref.CellUpdates += r.CellUpdates
		ref.Fallbacks += r.Fallbacks
		ref.TaskStats.Observe(float64(r.CellUpdates))
		for k := range r.BestHap {
			ref.Digest += readDigest(i, k, r.BestHap[k], r.Likelihoods[k*len(rg.Haps):(k+1)*len(rg.Haps)])
		}
	}
	ref.Digest &= 1<<52 - 1
	return ref
}

// TestPlanBlocksSplitsOversizedRegions: blocks cover every region's
// reads contiguously and in region order; the giant region is split at
// more than one thread and nothing is split at one.
func TestPlanBlocksSplitsOversizedRegions(t *testing.T) {
	regions := splitFixture()
	for _, threads := range []int{1, 2, 4, 8} {
		blocks := planBlocks(regions, threads)
		next := make([]int, len(regions)) // next uncovered read per region
		perRegion := make([]int, len(regions))
		prev := 0
		for _, b := range blocks {
			if b.region < prev || b.lo != next[b.region] || b.hi <= b.lo {
				t.Fatalf("threads=%d: block %+v out of order or not contiguous", threads, b)
			}
			prev, next[b.region] = b.region, b.hi
			perRegion[b.region]++
		}
		for i, rg := range regions {
			if next[i] != len(rg.Reads) {
				t.Fatalf("threads=%d: region %d covered to read %d of %d", threads, i, next[i], len(rg.Reads))
			}
		}
		if threads == 1 && len(blocks) != len(regions) {
			t.Errorf("threads=1: %d blocks for %d regions, want no split", len(blocks), len(regions))
		}
		if threads > 1 && perRegion[giantIndex] < threads {
			t.Errorf("threads=%d: giant region in %d blocks, want at least %d", threads, perRegion[giantIndex], threads)
		}
	}
}

// TestRunKernelSplitMatchesUnsplit is the split-vs-unsplit
// differential: at every thread count the read-block schedule reports
// exactly what evaluating each region whole does, down to every
// likelihood bit (via Digest).
func TestRunKernelSplitMatchesUnsplit(t *testing.T) {
	regions := splitFixture()
	want := unsplitReference(regions)
	if want.Fallbacks == 0 {
		t.Fatal("fixture exercises no float64 fallback")
	}
	for _, threads := range []int{1, 2, 4, 8} {
		got := RunKernel(regions, threads)
		if got.Regions != want.Regions || got.Pairs != want.Pairs || got.CellUpdates != want.CellUpdates ||
			got.Fallbacks != want.Fallbacks || got.Digest != want.Digest {
			t.Errorf("threads %d: got regions=%d pairs=%d cells=%d fallbacks=%d digest=%x, want %d %d %d %d %x",
				threads, got.Regions, got.Pairs, got.CellUpdates, got.Fallbacks, got.Digest,
				want.Regions, want.Pairs, want.CellUpdates, want.Fallbacks, want.Digest)
		}
		if g, w := got.TaskStats.Summarize(), want.TaskStats.Summarize(); !reflect.DeepEqual(g, w) {
			t.Errorf("threads %d: task stats %+v, want %+v", threads, g, w)
		}
	}
}

// settleGoroutines waits briefly for the goroutine count to fall back
// to at most n and reports the final count.
func settleGoroutines(n int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestRunKernelSplitFaultMidRegion: an injected error on a block in
// the middle of the giant region fails the run with that error, and
// every worker has exited when RunKernelCtx returns.
func TestRunKernelSplitFaultMidRegion(t *testing.T) {
	regions := []*Region{giantRegion(rand.New(rand.NewSource(32)), 48)}
	const threads = 4
	nBlocks := len(planBlocks(regions, threads))
	// Find a plan seed whose first error trips on a block that is
	// neither the first nor in the last half, probing a twin plan.
	const spec = "error:phmm:0.15"
	var seed int64
	for s := int64(1); seed == 0; s++ {
		twin, err := faultinject.Parse(spec, s)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < nBlocks/2; n++ {
			if twin.PointAt(context.Background(), "phmm") != nil {
				if n >= 2 {
					seed = s
				}
				break
			}
		}
	}
	plan, err := faultinject.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	faultinject.SetLabel("phmm")
	defer faultinject.ClearLabel()
	defer faultinject.Disarm()

	before := runtime.NumGoroutine()
	_, err = RunKernelCtx(context.Background(), regions, threads)
	var injected *faultinject.InjectedError
	if !errors.As(err, &injected) {
		t.Fatalf("RunKernelCtx err = %v, want an injected error", err)
	}
	if st := plan.Stats(); st[0].Evals >= uint64(nBlocks) {
		t.Errorf("%d of %d blocks evaluated after the fault; dispatch did not stop", st[0].Evals, nBlocks)
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines %d after the run, %d before: a worker leaked", after, before)
	}
}

// TestRunKernelSplitCancelMidRegion: a deadline that expires while
// the giant region's blocks are running returns the context's error
// and leaks no worker.
func TestRunKernelSplitCancelMidRegion(t *testing.T) {
	regions := []*Region{giantRegion(rand.New(rand.NewSource(33)), 48)}
	const threads = 4
	nBlocks := len(planBlocks(regions, threads))
	// Every block sleeps 20ms first, so the run needs about
	// nBlocks/threads*20ms; the deadline cuts it a few waves in.
	plan, err := faultinject.Parse("delay:phmm:20ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	faultinject.SetLabel("phmm")
	defer faultinject.ClearLabel()
	defer faultinject.Disarm()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	before := runtime.NumGoroutine()
	_, err = RunKernelCtx(ctx, regions, threads)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunKernelCtx err = %v, want context.DeadlineExceeded", err)
	}
	if st := plan.Stats(); st[0].Evals >= uint64(nBlocks) {
		t.Errorf("all %d blocks started despite the deadline", nBlocks)
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines %d after the run, %d before: a worker leaked", after, before)
	}
}
