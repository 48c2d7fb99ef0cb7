package fmindex

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/genome"
)

// The popcount-ranked occ4 must match the byte-scan reference at every
// position, across checkpoint densities (the primary-row correction
// and boundary trimming are the delicate parts).
func TestOcc4PackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, occRate := range []int{4, 16, 64, 256} {
		g := genome.Random(rng, 300+rng.Intn(300))
		opts := DefaultOptions()
		opts.OccRate = occRate
		x := BuildWithOptions(g, opts)
		for p := 0; p <= x.textLen+1; p++ {
			if got, want := x.occ4(p), x.occ4Scalar(p); got != want {
				t.Fatalf("occRate=%d p=%d (primary=%d): packed %v, scalar %v",
					occRate, p, x.primary, got, want)
			}
		}
	}
}

// countingTracer counts accesses with a plain (unsynchronized) field —
// exactly the kind of tracer that raced when shared across workers.
type countingTracer struct {
	accesses uint64
	bytes    uint64
}

func (c *countingTracer) Access(addr uint64, size int, write bool) {
	c.accesses++
	c.bytes += uint64(size)
}

// Regression test for the tracer data race: RunKernelCtx must route
// lookup addresses to per-worker tracers, never to a tracer shared
// between workers. Run under -race this fails if any tracer state is
// shared; it also asserts x.Tracer is left untouched by kernel runs.
func TestRunKernelCtxPerWorkerTracerRace(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := genome.Random(rng, 2000)
	x := Build(g)

	// A shared unsynchronized tracer on the index must NOT be used by
	// the kernel (using it concurrently would be a data race).
	shared := &countingTracer{}
	x.Tracer = shared
	defer func() { x.Tracer = nil }()

	reads := make([]genome.Seq, 64)
	for i := range reads {
		off := rng.Intn(len(g) - 100)
		reads[i] = g[off : off+100].Clone()
	}
	cfg := DefaultKernelConfig()
	cfg.Threads = 4
	tracers := make([]*countingTracer, cfg.Threads)
	cfg.NewWorkerTracer = func(w int) MemTracer {
		tracers[w] = &countingTracer{}
		return tracers[w]
	}
	res, err := RunKernelCtx(t.Context(), x, reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared.accesses != 0 {
		t.Fatalf("kernel used the shared x.Tracer (%d accesses): per-worker tracers must be used instead", shared.accesses)
	}
	var merged uint64
	for _, tr := range tracers {
		if tr != nil {
			merged += tr.accesses
		}
	}
	if merged == 0 {
		t.Fatal("per-worker tracers saw no accesses")
	}
	// Every Occ lookup touches checkpoint + block: 2 accesses each.
	if merged != 2*res.OccLookups {
		t.Fatalf("merged tracer accesses = %d, want 2*OccLookups = %d", merged, 2*res.OccLookups)
	}
}

// Concurrent kernel results must be independent of thread count.
func TestRunKernelCtxThreadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := genome.Random(rng, 3000)
	x := Build(g)
	reads := make([]genome.Seq, 40)
	for i := range reads {
		off := rng.Intn(len(g) - 150)
		reads[i] = g[off : off+150].Clone()
	}
	cfg := DefaultKernelConfig()
	cfg.Threads = 1
	want, err := RunKernelCtx(t.Context(), x, reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 4
	var spawned atomic.Int32
	cfg.NewWorkerTracer = func(w int) MemTracer { spawned.Add(1); return &countingTracer{} }
	got, err := RunKernelCtx(t.Context(), x, reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.SMEMs != want.SMEMs || got.OccLookups != want.OccLookups {
		t.Fatalf("threads=4: SMEMs/lookups %d/%d, want %d/%d",
			got.SMEMs, got.OccLookups, want.SMEMs, want.OccLookups)
	}
	if spawned.Load() != 4 {
		t.Fatalf("NewWorkerTracer called %d times, want 4", spawned.Load())
	}
}

// Byte-scan versus popcount Occ ranking: the bench harness's fmindex
// before/after pair. Lookups hit positions spread across the text so
// partial-block ranks of every length occur.
func BenchmarkOcc4(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	g := genome.Random(rng, 1<<16)
	x := Build(g)
	positions := make([]int, 1024)
	for i := range positions {
		positions[i] = rng.Intn(x.textLen + 1)
	}
	b.Run("scalar", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			c := x.occ4Scalar(positions[i%len(positions)])
			sink += c[0]
		}
		_ = sink
	})
	b.Run("packed", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			c := x.occ4(positions[i%len(positions)])
			sink += c[0]
		}
		_ = sink
	})
}

// End-to-end SMEM search with packed Occ ranking.
func BenchmarkFindSMEMs(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	g := genome.Random(rng, 1<<15)
	x := Build(g)
	reads := make([]genome.Seq, 32)
	for i := range reads {
		off := rng.Intn(len(g) - 120)
		reads[i] = g[off : off+120].Clone()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.FindSMEMs(reads[i%len(reads)], 19, 1, nil)
	}
}
