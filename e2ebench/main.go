// Command e2ebench is GenomicsBench's end-to-end benchmark. It drives
// the kernel suite and the scenario pipelines from outside, through
// their public functions, measures whole-run wall time, set-up time,
// CPU time and peak memory, checks every output, and in a separate
// traced mode breaks the run down by layer. README.md describes the
// workloads and metrics; run.sh builds and runs it from the root of a
// checkout:
//
//	bash e2ebench/run.sh --workload suite-small --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// threads is every workload's kernel thread count and per-stage
// scenario worker cap.
const threads = 2

// workloadDef is one named workload.
type workloadDef struct {
	// defaultDataSeed is the dataset seed the committed reference was
	// taken at; 0 means each scenario's registered seeds.
	defaultDataSeed int64
	units           func(dataSeed int64, c *checker) ([]unit, error)
}

var workloads = map[string]workloadDef{
	// All twelve kernels on the small inputs: what
	// `gbench -size small -threads 2` users wait for; phmm dominates.
	"suite-small": {42, func(seed int64, c *checker) ([]unit, error) {
		return suiteUnits(core.Small, "", seed, c), nil
	}},
	// The other eleven kernels on the large inputs: no kernel above
	// ~20% of the run, heavy set-up.
	"suite-large-no-phmm": {42, func(seed int64, c *checker) ([]unit, error) {
		return suiteUnits(core.Large, "phmm", seed, c), nil
	}},
	// The three fused scenario pipelines, one after another.
	"pipelines": {0, pipelineUnits},
}

// unit is one thing a pass runs: a suite kernel or a scenario.
type unit interface {
	name() string
	setup() error
	release()
	run(ctx context.Context, threads int, full bool) (map[string]float64, error)
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by an untraced run, in this order.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics lists every metric a traced run prints. A workload
// that does not run a layer reports 0 for it.
func perLayerMetrics() []metricDef {
	var ms []metricDef
	for _, k := range core.Names() {
		ms = append(ms, metricDef{prepareMetric(k), "s"})
	}
	for _, k := range core.Names() {
		for _, m := range kernelLayerMetrics {
			ms = append(ms, metricDef{k + "." + m.name, m.unit})
		}
	}
	stages := scenarioStages()
	for _, sc := range pipelineScale {
		ms = append(ms, metricDef{sc.name + ".wall_s", "s"}, metricDef{sc.name + ".overlap", "ratio"})
		for _, st := range stages[sc.name] {
			p := sc.name + "." + st
			ms = append(ms, metricDef{p + ".self_s", "s"}, metricDef{p + ".occupancy", "ratio"},
				metricDef{p + ".queue_peak", "items"})
		}
	}
	return append(ms, metricDef{"trace_overhead_s", "s"})
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	dataSeed  int64 // -1: the workload's default
	minPasses int   // fewest timed passes
	setupReps int   // fewest set-ups; setup_s is their median
	// setupBudget: set-ups past setupReps run while their total is
	// under it.
	setupBudget time.Duration
	out         string
	inject      string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload: suite-small, suite-large-no-phmm or pipelines")
	flag.Int64Var(&opts.seed, "seed", 1, "schedule seed: shuffles the order of kernels or scenarios in every pass")
	flag.Float64Var(&opts.seconds, "seconds", 25, "seconds of timed passes to aim for")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that prints per-layer metrics")
	flag.Int64Var(&opts.dataSeed, "data-seed", -1, "dataset seed (-1: the workload's default, which has a committed reference)")
	flag.StringVar(&opts.out, "out", filepath.Join(".bench_build", "e2ebench"), "directory for records and traces")
	flag.StringVar(&opts.inject, "inject-mismatch", "", "perturb this kernel's or scenario's observed output (checks the checker)")
	flag.Parse()
	opts.trace = trace == 1
	opts.minPasses, opts.setupReps, opts.setupBudget = 2, 4, 6*time.Second
	// An injected mismatch needs an output to perturb.
	badInject := opts.inject != "" && outputFields[opts.inject] == nil && scenario.Get(opts.inject) == nil
	if _, ok := workloads[opts.workload]; !ok || flag.NArg() > 0 || (trace != 0 && trace != 1) || badInject {
		fmt.Fprintln(os.Stderr, "e2ebench: usage: --workload suite-small|suite-large-no-phmm|pipelines --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := runWorkload(context.Background(), opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload sets up, warms up and measures one workload, writing
// the human-readable report to w, and returns the result line.
func runWorkload(ctx context.Context, opts options, w io.Writer) (*result, error) {
	def := workloads[opts.workload]
	dataSeed := opts.dataSeed
	if dataSeed < 0 {
		dataSeed = def.defaultDataSeed
	}
	var ref *reference
	if dataSeed == def.defaultDataSeed {
		refs, err := loadReferences()
		if err != nil {
			return nil, err
		}
		if ref = refs[opts.workload]; ref == nil {
			return nil, fmt.Errorf("no committed reference for %s", opts.workload)
		}
	}
	check := newChecker(ref, opts.inject)
	units, err := def.units(dataSeed, check)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	recordsPath := filepath.Join(opts.out, "records.ndjson")

	prov, resolve := stampProvenance()
	if prior, err := os.ReadFile(recordsPath); err == nil {
		flagTunableDrift(&prov, prior)
	}
	fmt.Fprintf(w, "# e2ebench workload=%s seed=%d data_seed=%d trace=%v threads=%d\n",
		opts.workload, opts.seed, dataSeed, opts.trace, threads)
	fmt.Fprintf(w, "# provenance %s\n", prov)
	if len(prov.TunablesDiffer) > 0 {
		fmt.Fprintf(w, "# WARNING tunables %v resolved differently in an earlier run of this binary: a source of bimodal timings\n",
			prov.TunablesDiffer)
	}

	r := newRunner(opts, units)
	m, err := r.measure(ctx)
	if err != nil {
		return nil, err
	}
	m.setup += resolve.Seconds()

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	e2e := map[string]float64{"wall_s": m.wall, "setup_s": m.setup, "cpu_s": m.cpu, "peak_rss_mb": m.peakRSS}
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "%-20s %-13s %12.6f %-5s\n", opts.workload, d.name, e2e[d.name], d.unit)
	}
	fmt.Fprintf(w, "%-20s %-13s %12.6f %-5s (%d of %d operations)\n", opts.workload, "failed_frac",
		float64(r.failed)/float64(r.attempted), "ratio", r.failed, r.attempted)
	fmt.Fprintf(w, "# wall_s is the median of %d timed passes (min %.6f s, max %.6f s)\n",
		len(m.walls), slices.Min(m.walls), slices.Max(m.walls))
	fmt.Fprintf(w, "# setup_s is the median of %d set-ups (min %.6f s, max %.6f s) plus %.6f s resolving tunables\n",
		len(m.setups), slices.Min(m.setups), slices.Max(m.setups), resolve.Seconds())
	if opts.trace {
		layer := r.layerValues(m)
		for _, d := range perLayerMetrics() {
			res.Metrics[d.name] = metricValue{layer[d.name], d.unit}
			fmt.Fprintf(w, "%-20s %-34s %14.6f %s\n", opts.workload, d.name, layer[d.name], d.unit)
		}
		fmt.Fprintf(w, "# tracing overhead: traced wall_s %.6f s - untraced wall_s %.6f s = %.6f s\n",
			median(m.tracedWalls), m.wall, layer["trace_overhead_s"])
	} else {
		for _, d := range endToEndMetrics {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	}

	if err := appendRecord(recordsPath, opts, dataSeed, prov, e2e, res); err != nil {
		return nil, err
	}
	if opts.trace {
		path := filepath.Join(opts.out, fmt.Sprintf("trace-%s-seed%d.ndjson", opts.workload, opts.seed))
		if err := writeTrace(path, opts, prov, r.tr); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# spans written to %s\n", path)
	}
	return res, nil
}

// appendRecord adds one provenance-stamped line to the records file,
// with the end-to-end metrics even for a traced run.
func appendRecord(path string, opts options, dataSeed int64, prov provenance, e2e map[string]float64, res *result) error {
	rec := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"workload":   opts.workload,
		"seed":       opts.seed,
		"data_seed":  dataSeed,
		"trace":      opts.trace,
		"provenance": prov,
		"end_to_end": e2e,
		"result":     res,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append record: %w", err)
	}
	return f.Close()
}
