package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scratch"
)

// kernelUnit drives one suite kernel through the public Benchmark
// interface, the way core.RunSuite does: Prepare, then RunCtx under a
// per-kernel scratch.WithPool context, then Release. The pool lives as
// long as the workload, so timed passes run on warm arenas.
type kernelUnit struct {
	bench core.Benchmark
	size  core.Size
	seed  int64
	pool  *scratch.Pool
	check *checker
}

func suiteUnits(size core.Size, skip string, seed int64, check *checker) []unit {
	var us []unit
	for _, b := range core.Benchmarks() {
		if b.Info().Name == skip {
			continue
		}
		us = append(us, &kernelUnit{bench: b, size: size, seed: seed, pool: scratch.NewPool(), check: check})
	}
	return us
}

func (k *kernelUnit) name() string { return k.bench.Info().Name }

func (k *kernelUnit) setup() error {
	k.bench.Prepare(k.size, k.seed)
	return nil
}

func (k *kernelUnit) release() { k.bench.Release() }

// run executes the kernel once at threads and checks its outputs; full
// marks a run at the pass width, whose every stable field must repeat.
// With an observer in ctx it also reads the parallel layer's counters
// for this kernel.
func (k *kernelUnit) run(ctx context.Context, threads int, full bool) (map[string]float64, error) {
	name := k.name()
	ctx = scratch.WithPool(ctx, k.pool)
	stats, err := k.bench.RunCtx(ctx, threads)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := k.check.kernel(name, stats.Extra, full); err != nil {
		return nil, err
	}
	layer := map[string]float64{}
	if stats.TaskStats != nil {
		s := stats.TaskStats.Summarize()
		layer["work"] = s.TotalWork
		if s.TotalWork > 0 {
			layer["task_work_max_share"] = s.Max / s.TotalWork
		}
	}
	if o := obs.From(ctx); o != nil && stats.Elapsed > 0 {
		longest := o.Histogram("parallel.task_latency_ns", name, "ns").Max()
		layer["longest_task_share"] = longest / float64(stats.Elapsed.Nanoseconds())
		layer["worker_util"] = o.Gauge("parallel.worker_utilization", name).Value()
	}
	return layer, nil
}

// kernelLayerMetrics are the per-kernel metrics of a traced run, in
// output order, with their units.
var kernelLayerMetrics = []metricDef{
	{"wall_s", "s"},
	{"t1_s", "s"},
	{"longest_task_share", "ratio"},
	{"task_work_max_share", "ratio"},
	{"work", "count"},
	{"worker_util", "ratio"},
}

// prepareMetric names a kernel's set-up time in the core layer.
func prepareMetric(kernel string) string { return "core.prepare." + kernel + "_s" }
