package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/scratch"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9.5, 9.5}, 9.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if median(xs); xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// fakeBench is a kernel whose RunCtx reports fixed stats and records
// into the parallel layer's metrics the way parallel.ForEach does.
type fakeBench struct {
	extra   map[string]float64
	work    []float64
	elapsed time.Duration
	longest time.Duration
	util    float64
}

func (f *fakeBench) Info() core.Info          { return core.Info{Name: "fake"} }
func (f *fakeBench) Prepare(core.Size, int64) {}
func (f *fakeBench) Run(int) core.RunStats    { panic("unused") }
func (f *fakeBench) Release()                 {}
func (f *fakeBench) RunCtx(ctx context.Context, _ int) (core.RunStats, error) {
	if o := obs.From(ctx); o != nil {
		label := obs.Label(ctx)
		o.Histogram("parallel.task_latency_ns", label, "ns").Observe(float64(f.longest.Nanoseconds()))
		o.Histogram("parallel.task_latency_ns", label, "ns").Observe(1)
		o.Gauge("parallel.worker_utilization", label).Set(f.util)
	}
	ts := perf.NewTaskStats("cells")
	for _, w := range f.work {
		ts.Observe(w)
	}
	extra := map[string]float64{}
	for k, v := range f.extra {
		extra[k] = v
	}
	return core.RunStats{Elapsed: f.elapsed, TaskStats: ts, Extra: extra}, nil
}

func TestKernelLayerMetrics(t *testing.T) {
	fb := &fakeBench{
		extra:   map[string]float64{"cells": 100},
		work:    []float64{10, 30, 60},
		elapsed: 200 * time.Millisecond,
		longest: 150 * time.Millisecond,
		util:    0.75,
	}
	k := &kernelUnit{bench: fb, pool: scratch.NewPool(), check: newChecker(nil, "")}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	ctx := obs.WithLabel(obs.With(context.Background(), o), "fake")
	layer, err := k.run(ctx, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"work": 100, "task_work_max_share": 0.6, "longest_task_share": 0.75, "worker_util": 0.75}
	for name, w := range want {
		if math.Abs(layer[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, layer[name], w)
		}
	}
	// Untraced: no observer, so no parallel-layer metrics.
	layer, err = k.run(context.Background(), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := layer["longest_task_share"]; ok {
		t.Errorf("untraced run reported parallel-layer metrics: %v", layer)
	}
	// A stable field that changes between passes is a failure.
	fb.extra["cells"] = 101
	if _, err := k.run(context.Background(), 2, true); err == nil {
		t.Error("changed work field not reported")
	}
}

// countingUnit counts how many copies of its data are live.
type countingUnit struct{ live, maxLive, setups int }

func (c *countingUnit) name() string { return "counting" }
func (c *countingUnit) setup() error {
	c.setups++
	c.live++
	c.maxLive = max(c.maxLive, c.live)
	return nil
}
func (c *countingUnit) release() { c.live = 0 }
func (c *countingUnit) run(context.Context, int, bool) (map[string]float64, error) {
	return nil, nil
}

// TestSetupReleasesBetweenRepetitions checks that repeated set-ups
// never hold two copies of a unit's data, and that the passes get the
// last one.
func TestSetupReleasesBetweenRepetitions(t *testing.T) {
	u := &countingUnit{}
	r := newRunner(options{setupReps: 5}, []unit{u})
	totals, _, err := r.setup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(totals) != 5 || u.setups != 5 {
		t.Errorf("%d set-up times for %d set-ups, want 5 of each", len(totals), u.setups)
	}
	if u.maxLive != 1 || u.live != 1 {
		t.Errorf("max %d copies live during set-up and %d after it, want 1 and 1", u.maxLive, u.live)
	}
}

func TestCheckerKernel(t *testing.T) {
	ref := &reference{Kernels: map[string]map[string]float64{"kmer-cnt": {"kmers": 10, "distinct": 7}}}
	c := newChecker(ref, "")
	first := map[string]float64{"kmers": 10, "distinct": 7, "probes": 55}
	if err := c.kernel("kmer-cnt", first, true); err != nil {
		t.Fatalf("matching output rejected: %v", err)
	}
	// probes is a volatile work counter: it may move between passes.
	if err := c.kernel("kmer-cnt", map[string]float64{"kmers": 10, "distinct": 7, "probes": 60}, true); err != nil {
		t.Errorf("volatile field compared: %v", err)
	}
	if err := c.kernel("kmer-cnt", map[string]float64{"kmers": 10, "distinct": 8, "probes": 55}, true); err == nil {
		t.Error("output differing from the reference accepted")
	}
	if err := c.kernel("kmer-cnt", map[string]float64{"kmers": 10, "probes": 55}, true); err == nil {
		t.Error("missing output field accepted")
	}

	// Without a reference (another data seed) only pass-to-pass repeats
	// are checked; a one-thread run compares output fields only.
	c = newChecker(nil, "")
	if err := c.kernel("phmm", map[string]float64{"cells": 5, "pairs": 2, "fallbacks": 1}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.kernel("phmm", map[string]float64{"cells": 5, "pairs": 3, "fallbacks": 1}, true); err == nil {
		t.Error("changed stable field accepted")
	}
	c = newChecker(nil, "")
	if err := c.kernel("fmi", map[string]float64{"smems": 4, "occ_lookups": 9}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.kernel("fmi", map[string]float64{"smems": 4, "occ_lookups": 12, "other": 1}, false); err != nil {
		t.Errorf("one-thread run compared beyond its outputs: %v", err)
	}
	if err := c.kernel("fmi", map[string]float64{"smems": 5}, false); err == nil {
		t.Error("one-thread output mismatch accepted")
	}
}

func TestCheckerInjectAndScenario(t *testing.T) {
	ref := &reference{
		Kernels:   map[string]map[string]float64{"fmi": {"smems": 4}},
		Scenarios: map[string]string{"methylation": "00000000000000aa"},
	}
	c := newChecker(ref, "fmi")
	if err := c.kernel("fmi", map[string]float64{"smems": 4}, true); err == nil {
		t.Error("injected mismatch not detected")
	}
	c = newChecker(ref, "methylation")
	if err := c.scenario("methylation", 0xaa); err == nil {
		t.Error("injected digest mismatch not detected")
	}
	c = newChecker(ref, "")
	if err := c.scenario("methylation", 0xaa); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := c.scenario("variantcalling", 0xaa); err == nil {
		t.Error("scenario without a reference accepted at the default seed")
	}
	c = newChecker(nil, "")
	if err := c.scenario("metagenomics", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.scenario("metagenomics", 2); err == nil {
		t.Error("digest differing from the first pass accepted")
	}
}

func TestReferencesCoverWorkloads(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"suite-small", "suite-large-no-phmm"} {
		for kernel, fields := range outputFields {
			for _, f := range fields {
				if _, ok := refs[name].Kernels[kernel][f]; !ok {
					t.Errorf("%s: no reference for %s.%s", name, kernel, f)
				}
			}
		}
	}
	for _, sc := range pipelineScale {
		if d := refs["pipelines"].Scenarios[sc.name]; len(d) != 16 {
			t.Errorf("pipelines: bad reference digest %q for %s", d, sc.name)
		}
		if _, err := strconv.ParseUint(refs["pipelines"].Scenarios[sc.name], 16, 64); err != nil {
			t.Errorf("pipelines: bad reference digest for %s: %v", sc.name, err)
		}
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json's metric lists
// to what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics())
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
}

func testOptions(t *testing.T, workload string, dataSeed int64) options {
	return options{workload: workload, seed: 3, dataSeed: dataSeed, minPasses: 1, setupReps: 1, out: t.TempDir()}
}

// TestNonDefaultSeedRun runs a reduced suite at a data seed with no
// committed reference: every pass must reproduce the first.
func TestNonDefaultSeedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small suite")
	}
	res, err := runWorkload(context.Background(), testOptions(t, "suite-small", 7), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 24 {
		t.Fatalf("result %+v, want 24 operations, none failed", res)
	}
	for _, d := range endToEndMetrics {
		if v := res.Metrics[d.name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", d.name, v)
		}
	}
}

// TestInjectedMismatchCounted proves a wrong answer at the default
// seed makes failed_frac nonzero, and that a traced run prints every
// per-layer metric.
func TestInjectedMismatchCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipelines")
	}
	opts := testOptions(t, "pipelines", -1)
	opts.inject = "methylation"
	opts.trace = true
	var out strings.Builder
	res, err := runWorkload(context.Background(), opts, &out)
	if err != nil {
		t.Fatal(err)
	}
	// warm-up, one untraced and one traced pass, and the staged twin.
	if res.Correct || res.Failed != 4 || res.Attempted != 12 {
		t.Errorf("result correct=%v failed=%d attempted=%d, want 4 of 12 failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, d := range perLayerMetrics() {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
	if !strings.Contains(out.String(), "failed_frac") {
		t.Error("report lacks failed_frac")
	}
}
