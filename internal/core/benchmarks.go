package core

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/abea"
	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/dbg"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/grm"
	"repro/internal/kmercnt"
	"repro/internal/nnbase"
	"repro/internal/nnvariant"
	"repro/internal/perf"
	"repro/internal/phmm"
	"repro/internal/pileup"
	"repro/internal/poa"
	"repro/internal/readsim"
	"repro/internal/signalsim"
	"repro/internal/simio"
)

// The paper's datasets are human-genome scale; this reproduction keeps
// the small:large ratio (~5-10x) at laptop scale. Every Prepare is
// deterministic in (size, seed).

func pick[T any](size Size, small, large T) T {
	if size == Large {
		return large
	}
	return small
}

// ---- fmi ----

type fmiBench struct {
	index *fmindex.Index
	reads []genome.Seq
}

func (b *fmiBench) Info() Info {
	return Info{
		Name: "fmi", Tool: "BWA-MEM2", Pipeline: "reference-guided",
		Motif: "graph traversal (backward search)", Granularity: "Read",
		WorkUnit: "Occ table lookups", Irregular: true,
	}
}

func (b *fmiBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ref := genome.NewReference(rng, "chr", pick(size, 200_000, 1_000_000), 0.15)
	b.index = fmindex.Build(ref.Seq)
	sim := readsim.New(seed + 1)
	cfg := readsim.DefaultShort()
	n := pick(size, 2000, 10000)
	rs := sim.ShortReads(ref.Seq, -1, n, cfg, "r")
	b.reads = make([]genome.Seq, len(rs))
	for i := range rs {
		b.reads[i] = rs[i].Seq
	}
}

func (b *fmiBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := fmindex.RunKernelCtx(ctx, b.index, b.reads, fmindex.KernelConfig{MinSeedLen: 19, MinHits: 1, Threads: threads})
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"smems":       float64(res.SMEMs),
			"occ_lookups": float64(res.OccLookups),
		},
	}, nil
}

// ---- bsw ----

type bswBench struct {
	pairs []bsw.Pair
}

func (b *bswBench) Info() Info {
	return Info{
		Name: "bsw", Tool: "BWA-MEM2", Pipeline: "reference-guided",
		Motif: "dynamic programming (banded, 2D)", Granularity: "Seed",
		WorkUnit: "cell updates", Irregular: true,
	}
}

func (b *bswBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ref := genome.NewReference(rng, "chr", 300_000, 0.1)
	n := pick(size, 4000, 20000)
	b.pairs = make([]bsw.Pair, 0, n)
	for i := 0; i < n; i++ {
		// Heavy-tailed seed-extension lengths: most extensions are
		// short, a few span long gaps (drives Figure 4's imbalance).
		qLen := 60 + int(40*math.Exp(rng.NormFloat64()*0.7))
		if qLen > 600 {
			qLen = 600
		}
		start := rng.Intn(len(ref.Seq) - qLen - 60)
		q := ref.Seq[start : start+qLen].Clone()
		// Mutate the query a little; a fraction of pairs are unrelated
		// (z-drop candidates).
		var t genome.Seq
		if rng.Float64() < 0.15 {
			t = genome.Random(rng, qLen+40)
		} else {
			t = ref.Seq[start : start+qLen+40].Clone()
			for m := 0; m < qLen/30; m++ {
				t[rng.Intn(len(t))] = genome.Base(rng.Intn(4))
			}
		}
		b.pairs = append(b.pairs, bsw.Pair{Query: q, Target: t})
	}
}

func (b *bswBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := bsw.RunKernelCtx(ctx, b.pairs, bsw.DefaultParams(), threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"cells": float64(res.CellUpdates),
			"score": float64(res.TotalScore),
		},
	}, nil
}

// ---- dbg ----

type dbgBench struct {
	regions []*dbg.Region
}

func (b *dbgBench) Info() Info {
	return Info{
		Name: "dbg", Tool: "Platypus", Pipeline: "reference-guided",
		Motif: "graph construction + hashing", Granularity: "Genome Region",
		WorkUnit: "hash table lookups", Irregular: true,
	}
}

func (b *dbgBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nRegions := pick(size, 60, 300)
	sim := readsim.New(seed + 1)
	cfg := readsim.DefaultShort()
	cfg.Length = 100
	b.regions = make([]*dbg.Region, 0, nRegions)
	for i := 0; i < nRegions; i++ {
		refLen := 200 + rng.Intn(600)
		ref := genome.NewReference(rng, "rg", refLen, 0.05)
		donor := genome.PlantVariants(rng, ref, 0.004, 0.001)
		coverage := 15 + rng.Float64()*35
		reads := sim.CoverageReads(donor, coverage, cfg, "r")
		rg := &dbg.Region{Ref: ref.Seq}
		for _, r := range reads {
			rg.Reads = append(rg.Reads, r.Seq)
		}
		b.regions = append(b.regions, rg)
	}
}

func (b *dbgBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := dbg.RunKernelCtx(ctx, b.regions, dbg.DefaultConfig(), threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"haplotypes":    float64(res.Haplotypes),
			"hash_lookups":  float64(res.HashLookups),
			"cycle_retries": float64(res.CycleRetries),
		},
	}, nil
}

// ---- phmm ----

type phmmBench struct {
	regions []*phmm.Region
}

func (b *phmmBench) Info() Info {
	return Info{
		Name: "phmm", Tool: "GATK HaplotypeCaller", Pipeline: "reference-guided",
		Motif: "dynamic programming (FP, wavefront)", Granularity: "Genome Region",
		WorkUnit: "cell updates", Irregular: true,
	}
}

func (b *phmmBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nRegions := pick(size, 30, 150)
	b.regions = make([]*phmm.Region, 0, nRegions)
	for i := 0; i < nRegions; i++ {
		// Heavy-tailed region sizes reproduce the paper's Figure 4
		// imbalance (phmm max/mean up to 1000x in the original).
		hapLen := 120 + rng.Intn(180)
		nReads := 4 + rng.Intn(12)
		// GATK's assembler emits up to maxNumHaplotypesInPopulation=128
		// candidate haplotypes per active region; a typical indel-bearing
		// region carries a few dozen. Spanning 4..32 keeps both the
		// lane-batched path (>= 8 haplotypes) and the scalar small-region
		// path (< 8) on the measured profile.
		nHaps := 4 + rng.Intn(29)
		// A few pathological regions (deep pileups over long haplotype
		// sets) dominate, as in the paper's Figure 4 where phmm's max
		// region needs ~1000x the mean computation.
		switch r := rng.Float64(); {
		case r < 0.02:
			hapLen *= 8
			nReads *= 25
			nHaps = 48
		case r < 0.07:
			hapLen *= 3
			nReads *= 6
		}
		base := genome.Random(rng, hapLen)
		rg := &phmm.Region{}
		for h := 0; h < nHaps; h++ {
			hap := base.Clone()
			for m := 0; m < h; m++ {
				hap[rng.Intn(len(hap))] = genome.Base(rng.Intn(4))
			}
			rg.Haps = append(rg.Haps, hap)
		}
		for r := 0; r < nReads; r++ {
			rl := 40 + rng.Intn(40)
			if rl >= hapLen {
				rl = hapLen - 1
			}
			start := rng.Intn(hapLen - rl)
			read := base[start : start+rl].Clone()
			qual := make([]byte, rl)
			for q := range qual {
				qual[q] = byte(20 + rng.Intn(20))
			}
			rg.Reads = append(rg.Reads, read)
			rg.Quals = append(rg.Quals, qual)
		}
		b.regions = append(b.regions, rg)
	}
}

func (b *phmmBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := phmm.RunKernelCtx(ctx, b.regions, threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"pairs":     float64(res.Pairs),
			"cells":     float64(res.CellUpdates),
			"fallbacks": float64(res.Fallbacks),
			"digest":    float64(res.Digest),
		},
	}, nil
}

// ---- chain ----

type chainBench struct {
	tasks []chain.Task
}

func (b *chainBench) Info() Info {
	return Info{
		Name: "chain", Tool: "Minimap2", Pipeline: "de novo",
		Motif: "dynamic programming (1D)", Granularity: "Read",
		WorkUnit: "input anchors", Irregular: true,
	}
}

func (b *chainBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	src := genome.NewReference(rng, "asm", 150_000, 0.2)
	nTasks := pick(size, 150, 750)
	b.tasks = make([]chain.Task, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		aLen := 2000 + rng.Intn(4000)
		bLen := 2000 + rng.Intn(4000)
		aStart := rng.Intn(len(src.Seq) - aLen)
		// Overlapping pair with probability 0.7; unrelated otherwise.
		var bStart int
		if rng.Float64() < 0.7 {
			off := rng.Intn(aLen)
			bStart = aStart + off
			if bStart+bLen > len(src.Seq) {
				bStart = len(src.Seq) - bLen
			}
		} else {
			bStart = rng.Intn(len(src.Seq) - bLen)
		}
		readA := src.Seq[aStart : aStart+aLen]
		readB := src.Seq[bStart : bStart+bLen]
		b.tasks = append(b.tasks, chain.Task{Anchors: chain.SharedAnchors(readB, readA, 15, 10, 100)})
	}
}

func (b *chainBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := chain.RunKernelCtx(ctx, b.tasks, chain.DefaultConfig(), threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"chains":      float64(res.Chains),
			"comparisons": float64(res.Comparisons),
		},
	}, nil
}

// ---- spoa ----

type poaBench struct {
	windows []*poa.Window
}

func (b *poaBench) Info() Info {
	return Info{
		Name: "spoa", Tool: "Racon", Pipeline: "de novo",
		Motif: "dynamic programming (graph)", Granularity: "Read Chunk Window",
		WorkUnit: "cell updates", Irregular: true,
	}
}

func (b *poaBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nWindows := pick(size, 40, 240) // paper: 1000/6000 consensus tasks
	b.windows = make([]*poa.Window, 0, nWindows)
	for i := 0; i < nWindows; i++ {
		truth := genome.Random(rng, 150+rng.Intn(200))
		w := &poa.Window{}
		depth := 6 + rng.Intn(10)
		for r := 0; r < depth; r++ {
			read := truth.Clone()
			// ~5% errors per read.
			for m := 0; m < len(read)/20; m++ {
				switch rng.Intn(3) {
				case 0:
					read[rng.Intn(len(read))] = genome.Base(rng.Intn(4))
				case 1:
					p := rng.Intn(len(read))
					read = append(read[:p], read[p+1:]...)
				default:
					p := rng.Intn(len(read))
					read = append(read[:p], append(genome.Seq{genome.Base(rng.Intn(4))}, read[p:]...)...)
				}
			}
			w.Sequences = append(w.Sequences, read)
		}
		b.windows = append(b.windows, w)
	}
}

func (b *poaBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := poa.RunKernelCtx(ctx, b.windows, poa.DefaultParams(), threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra:     map[string]float64{"cells": float64(res.CellUpdates)},
	}, nil
}

// ---- abea ----

type abeaBench struct {
	model *signalsim.PoreModel
	reads []signalsim.SignalRead
}

func (b *abeaBench) Info() Info {
	return Info{
		Name: "abea", Tool: "Nanopolish/f5c", Pipeline: "de novo",
		Motif: "dynamic programming (adaptive band, FP)", Granularity: "Read",
		WorkUnit: "cell updates", Irregular: true, GPU: true,
	}
}

func (b *abeaBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b.model = signalsim.NewPoreModel()
	src := genome.NewReference(rng, "chr", 120_000, 0.1)
	n := pick(size, 60, 300) // paper: 1000/10000 FAST5 reads
	// Nanopore read lengths are heavy-tailed; sample per-read bounds.
	b.reads = b.reads[:0]
	for i := 0; i < n; i++ {
		length := 300 + int(500*math.Exp(rng.NormFloat64()*0.8))
		if length > 8000 {
			length = 8000
		}
		b.reads = append(b.reads,
			signalsim.SimulateReads(rng, b.model, src.Seq, 1, length, length, signalsim.DefaultConfig())...)
	}
}

func (b *abeaBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := abea.RunKernelCtx(ctx, b.model, b.reads, abea.DefaultConfig(), threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"cells":       float64(res.CellUpdates),
			"out_of_band": float64(res.OutOfBand),
		},
	}, nil
}

// ---- kmer-cnt ----

type kmercntBench struct {
	reads []genome.Seq
}

func (b *kmercntBench) Info() Info {
	return Info{
		Name: "kmer-cnt", Tool: "Flye", Pipeline: "de novo",
		Motif: "hashing (regular input, random access)", Granularity: "Read",
		WorkUnit: "hash table inserts", Irregular: false,
	}
}

func (b *kmercntBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	src := genome.NewReference(rng, "chr", 400_000, 0.1)
	sim := readsim.New(seed + 1)
	cfg := readsim.DefaultLong()
	cfg.MeanLength = 3000
	n := pick(size, 150, 750)
	rs := sim.LongReads(src.Seq, -1, n, cfg, "l")
	b.reads = make([]genome.Seq, len(rs))
	for i := range rs {
		b.reads[i] = rs[i].Seq
	}
}

func (b *kmercntBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := kmercnt.RunKernelCtx(ctx, b.reads, 17, threads, kmercnt.Linear)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"kmers":    float64(res.Kmers),
			"distinct": float64(res.Distinct),
			"probes":   float64(res.Probes),
		},
	}, nil
}

// ---- grm ----

type grmBench struct {
	genotypes *grm.Genotypes
}

func (b *grmBench) Info() Info {
	return Info{
		Name: "grm", Tool: "PLINK2", Pipeline: "population",
		Motif: "dense matrix multiplication", Granularity: "Output element",
		WorkUnit: "multiply-accumulates", Irregular: false,
	}
}

func (b *grmBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Paper: 2504 individuals x 194K/1.07M variants; scaled.
	n := pick(size, 160, 320)
	s := pick(size, 3000, 12000)
	b.genotypes = grm.Simulate(rng, n, s, 0.1)
}

func (b *grmBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := grm.RunKernelCtx(ctx, b.genotypes, 64, threads)
	if err != nil {
		return RunStats{}, err
	}
	ts := perf.NewTaskStats("multiply-accumulates")
	ts.Observe(float64(res.FLOPs))
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: ts,
		Extra:     map[string]float64{"flops": float64(res.FLOPs)},
	}, nil
}

// ---- nn-base ----

type nnbaseBench struct {
	model *nnbase.Model
	cfg   nnbase.Config
	reads []nnbase.Read
}

func (b *nnbaseBench) Info() Info {
	return Info{
		Name: "nn-base", Tool: "Bonito", Pipeline: "de novo",
		Motif: "dense neural network (CNN + CTC)", Granularity: "Signal chunk",
		WorkUnit: "multiply-accumulates", Irregular: false, GPU: true,
	}
}

func (b *nnbaseBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b.reads = nil
	b.cfg = nnbase.DefaultConfig()
	b.cfg.Channels = 32
	b.cfg.Blocks = 3
	b.model = nnbase.NewModel(seed, b.cfg)
	pore := signalsim.NewPoreModel()
	src := genome.NewReference(rng, "chr", 60_000, 0.1)
	n := pick(size, 6, 30)
	for i := 0; i < n; i++ {
		length := 400 + rng.Intn(800)
		start := rng.Intn(len(src.Seq) - length)
		sig := signalsim.RawSignal(rng, pore, src.Seq[start:start+length], signalsim.DefaultConfig())
		b.reads = append(b.reads, nnbase.Read{Name: "sig", Signal: sig})
	}
}

func (b *nnbaseBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := nnbase.RunKernelCtx(ctx, b.model, b.reads, b.cfg, threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"macs":  float64(res.MACs),
			"bases": float64(res.BasesOut),
		},
	}, nil
}

// ---- pileup ----

type pileupBench struct {
	regions []*pileup.Region
}

func (b *pileupBench) Info() Info {
	return Info{
		Name: "pileup", Tool: "Medaka", Pipeline: "reference-guided",
		Motif: "record parsing + counting", Granularity: "Read",
		WorkUnit: "read lookups", Irregular: true,
	}
}

func (b *pileupBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	refLen := pick(size, 600_000, 3_000_000)
	ref := genome.NewReference(rng, "chr", refLen, 0.1)
	n := pick(size, 1500, 7500)
	alns := simio.SimulateAlignments(rng, ref.Seq, n, simio.DefaultAlignSim())
	// Coverage is uneven across the genome (mappability, GC bias):
	// skew alignment starts toward the front half so regions differ.
	for _, a := range alns {
		f := rng.Float64()
		maxPos := refLen - a.Cigar.RefLen() - 1
		if maxPos > 0 {
			a.Pos = int(f * f * float64(maxPos))
		}
	}
	b.regions = pileup.SplitRegions(refLen, alns, pileup.RegionSize)
}

func (b *pileupBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := pileup.RunKernelCtx(ctx, b.regions, threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"read_lookups": float64(res.ReadLookups),
			"depth":        float64(res.TotalDepth),
		},
	}, nil
}

// ---- nn-variant ----

type nnvariantBench struct {
	model *nnvariant.Model
	tasks []*nnvariant.Task
}

func (b *nnvariantBench) Info() Info {
	return Info{
		Name: "nn-variant", Tool: "Clair", Pipeline: "reference-guided",
		Motif: "dense neural network (BiLSTM)", Granularity: "Candidate position",
		WorkUnit: "multiply-accumulates", Irregular: false, GPU: true,
	}
}

func (b *nnvariantBench) Prepare(size Size, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b.tasks = nil
	b.model = nnvariant.NewModel(seed, nnvariant.DefaultConfig())
	refLen := pick(size, 40_000, 200_000)
	ref := genome.NewReference(rng, "chr", refLen, 0.05)
	alns := simio.SimulateAlignments(rng, ref.Seq, pick(size, 250, 1250), simio.AlignSimConfig{
		MeanReadLen: 2000, SubRate: 0.02, InsRate: 0.01, DelRate: 0.01,
		MeanQual: 20, RefName: "chr",
	})
	regions := pileup.SplitRegions(refLen, alns, 10_000)
	for _, rg := range regions {
		counts, _ := pileup.CountRegion(rg)
		cands := nnvariant.SelectCandidates(counts, ref.Seq, rg.Start, 8, 0.25)
		// Cap candidates per region to bound runtime like Clair's
		// batching does.
		if len(cands) > 40 {
			cands = cands[:40]
		}
		b.tasks = append(b.tasks, &nnvariant.Task{Counts: counts, Candidates: cands})
	}
}

func (b *nnvariantBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	res, err := nnvariant.RunKernelCtx(ctx, b.model, b.tasks, threads)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Elapsed:   time.Since(start),
		Counters:  res.Counters,
		TaskStats: res.TaskStats,
		Extra: map[string]float64{
			"calls": float64(res.Calls),
			"macs":  float64(res.MACs),
		},
	}, nil
}

func init() {
	Register(&fmiBench{})
	Register(&bswBench{})
	Register(&dbgBench{})
	Register(&phmmBench{})
	Register(&chainBench{})
	Register(&poaBench{})
	Register(&abeaBench{})
	Register(&grmBench{})
	Register(&nnbaseBench{})
	Register(&pileupBench{})
	Register(&nnvariantBench{})
	Register(&kmercntBench{})
}

// Run implementations preserve the legacy non-cancellable API: they
// execute RunCtx under a background context and panic on failure,
// which cannot happen unless a fault plan is armed.

func mustRun(b Benchmark, threads int) RunStats {
	stats, err := b.RunCtx(context.Background(), threads)
	if err != nil {
		panic(err)
	}
	return stats
}

func (b *fmiBench) Run(threads int) RunStats       { return mustRun(b, threads) }
func (b *bswBench) Run(threads int) RunStats       { return mustRun(b, threads) }
func (b *dbgBench) Run(threads int) RunStats       { return mustRun(b, threads) }
func (b *phmmBench) Run(threads int) RunStats      { return mustRun(b, threads) }
func (b *chainBench) Run(threads int) RunStats     { return mustRun(b, threads) }
func (b *poaBench) Run(threads int) RunStats       { return mustRun(b, threads) }
func (b *abeaBench) Run(threads int) RunStats      { return mustRun(b, threads) }
func (b *kmercntBench) Run(threads int) RunStats   { return mustRun(b, threads) }
func (b *grmBench) Run(threads int) RunStats       { return mustRun(b, threads) }
func (b *nnbaseBench) Run(threads int) RunStats    { return mustRun(b, threads) }
func (b *pileupBench) Run(threads int) RunStats    { return mustRun(b, threads) }
func (b *nnvariantBench) Run(threads int) RunStats { return mustRun(b, threads) }

// Release implementations drop each benchmark's prepared dataset.

func (b *fmiBench) Release()       { *b = fmiBench{} }
func (b *bswBench) Release()       { *b = bswBench{} }
func (b *dbgBench) Release()       { *b = dbgBench{} }
func (b *phmmBench) Release()      { *b = phmmBench{} }
func (b *chainBench) Release()     { *b = chainBench{} }
func (b *poaBench) Release()       { *b = poaBench{} }
func (b *abeaBench) Release()      { *b = abeaBench{} }
func (b *kmercntBench) Release()   { *b = kmercntBench{} }
func (b *grmBench) Release()       { *b = grmBench{} }
func (b *nnbaseBench) Release()    { *b = nnbaseBench{} }
func (b *pileupBench) Release()    { *b = pileupBench{} }
func (b *nnvariantBench) Release() { *b = nnvariantBench{} }
