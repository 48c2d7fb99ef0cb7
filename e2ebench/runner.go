package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
)

// runner measures one workload: set-up several times, one untimed
// warm-up pass, then timed passes back to back. Every operation (a
// kernel RunCtx or a scenario run) is checked; a failed one counts
// against failed_frac. In the traced mode it interleaves untraced and
// traced passes, then runs each kernel at one thread and each
// scenario's staged twin.
type runner struct {
	opts  options
	units []unit
	tr    *obs.Tracer // nil in the untraced mode: every span call is a no-op
	rng   *rand.Rand

	attempted, failed int
	// samples holds per-layer observations by metric name; a traced
	// run reports each one's median.
	samples map[string][]float64
}

// measurement is what one run measured. Times are in seconds.
type measurement struct {
	wall, setup, cpu, peakRSS  float64
	walls, tracedWalls, setups []float64
	// setupPeaks holds each set-up's own peak RSS in MiB.
	setupPeaks []float64
}

func newRunner(opts options, units []unit) *runner {
	r := &runner{opts: opts, units: units, rng: rand.New(rand.NewSource(opts.seed)), samples: map[string][]float64{}}
	if opts.trace {
		r.tr = obs.NewTracer()
	}
	return r
}

func (r *runner) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *runner) measure(ctx context.Context) (measurement, error) {
	var m measurement
	ctx, span := r.tr.Start(ctx, "workload:"+r.opts.workload)
	defer span.End(nil)
	defer func() {
		for _, u := range r.units {
			u.release()
		}
	}()
	var err error
	if m.setups, m.setupPeaks, err = r.setup(ctx); err != nil {
		return m, err
	}
	m.setup = median(m.setups)

	warm := r.pass(ctx, "warmup", false)
	n := int(math.Round(r.opts.seconds / warm.wall.Seconds()))
	if n < r.opts.minPasses {
		n = r.opts.minPasses
	}
	var cpus, passPeaks []float64
	timed := func(label string, traced bool) {
		reset := !traced && resetPeakRSS()
		s := r.pass(ctx, label, traced)
		if traced {
			m.tracedWalls = append(m.tracedWalls, s.wall.Seconds())
			return
		}
		m.walls = append(m.walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		if reset {
			passPeaks = append(passPeaks, peakRSSMB())
		}
	}
	if !r.opts.trace {
		for i := 0; i < n; i++ {
			timed(fmt.Sprintf("pass-%d", i), false)
		}
	} else {
		// Pairs of one untraced and one traced pass, alternating which
		// goes first, so drift does not load the overhead estimate.
		for i := 0; i < max(1, n/2); i++ {
			for j := 0; j < 2; j++ {
				traced := (i+j)%2 == 1
				timed(fmt.Sprintf("pass-%d-traced=%v", i, traced), traced)
			}
		}
	}
	m.wall = median(m.walls)
	m.cpu = median(cpus)
	// The peak is a typical set-up's or a typical timed pass's,
	// whichever is larger: the medians keep a rare scheduling-dependent
	// spike in one set-up or pass from deciding the whole run's figure.
	if len(passPeaks) > 0 && len(m.setupPeaks) > 0 {
		m.peakRSS = max(median(m.setupPeaks), median(passPeaks))
	} else {
		m.peakRSS = peakRSSMB()
	}
	if r.opts.trace {
		r.baselines(ctx)
	}
	return m, nil
}

// maxSetupReps caps the repetitions of a cheap set-up.
const maxSetupReps = 40

// setup runs every unit's set-up at least opts.setupReps times, and
// more while the set-ups total under opts.setupBudget, so that the
// median rests on enough samples to be steady. It returns each
// repetition's total time and, where the peak can be reset, its own
// peak RSS; the last repetition's data is what the passes run on.
// Each repetition after the first releases the previous data and
// starts from a collected heap, so, as in core.RunSuite, only one copy
// of a unit's data is ever live.
func (r *runner) setup(ctx context.Context) (totals, peaks []float64, err error) {
	var spent time.Duration
	for rep := 0; rep < r.opts.setupReps || (spent < r.opts.setupBudget && rep < maxSetupReps); rep++ {
		if rep > 0 {
			for _, u := range r.units {
				u.release()
			}
		}
		runtime.GC()
		reset := resetPeakRSS()
		sctx, span := r.tr.Start(ctx, fmt.Sprintf("setup-%d", rep))
		var total time.Duration
		for _, u := range r.units {
			_, us := r.tr.Start(sctx, "setup:"+u.name())
			t := time.Now()
			err := u.setup()
			d := time.Since(t)
			us.End(err)
			if err != nil {
				span.End(err)
				return nil, nil, err
			}
			total += d
			if _, ok := u.(*kernelUnit); ok {
				r.add(prepareMetric(u.name()), d.Seconds())
			}
		}
		span.End(nil)
		spent += total
		totals = append(totals, total.Seconds())
		if reset {
			peaks = append(peaks, peakRSSMB())
		}
	}
	return totals, peaks, nil
}

type passSample struct{ wall, cpu time.Duration }

// pass runs every unit once, in an order shuffled by the schedule
// seed. Each operation starts from a collected heap, so its time and
// memory do not depend on which operation ran before it; the pass's
// wall and CPU time are the sums over its operations. A traced pass
// installs a fresh observer per operation, so the parallel and
// scenario layers' counters describe that operation alone.
func (r *runner) pass(ctx context.Context, label string, traced bool) passSample {
	order := r.rng.Perm(len(r.units))
	ctx, span := r.tr.Start(ctx, label)
	defer span.End(nil)
	var s passSample
	for _, i := range order {
		u := r.units[i]
		uctx := ctx
		if traced {
			o := &obs.Observer{Metrics: obs.NewRegistry(), Tracer: r.tr}
			uctx = obs.WithLabel(obs.With(ctx, o), u.name())
		}
		runtime.GC()
		c0 := cpuTime()
		d, layer, ok := r.op(uctx, "run:"+u.name(), func(ctx context.Context) (map[string]float64, error) {
			return u.run(ctx, threads, true)
		})
		s.cpu += cpuTime() - c0
		s.wall += d
		if traced && ok {
			r.add(u.name()+".wall_s", d.Seconds())
			for k, v := range layer {
				r.add(u.name()+"."+k, v)
			}
		}
	}
	return s
}

// baselines runs, untraced and each from a collected heap, each kernel
// once at one thread (the paper's single-thread baseline) and each
// scenario's staged twin (for stage self times).
func (r *runner) baselines(ctx context.Context) {
	ctx, span := r.tr.Start(ctx, "baselines")
	defer span.End(nil)
	for _, i := range r.rng.Perm(len(r.units)) {
		runtime.GC()
		switch u := r.units[i].(type) {
		case *kernelUnit:
			d, _, ok := r.op(ctx, "t1:"+u.name(), func(ctx context.Context) (map[string]float64, error) {
				return u.run(ctx, 1, false)
			})
			if ok {
				r.add(u.name()+".t1_s", d.Seconds())
			}
		case *scenarioUnit:
			_, layer, _ := r.op(ctx, "staged:"+u.name(), func(ctx context.Context) (map[string]float64, error) {
				return u.staged(ctx, threads)
			})
			for k, v := range layer {
				r.add(u.name()+"."+k, v)
			}
		}
	}
}

// op runs one checked operation under a span and counts it.
func (r *runner) op(ctx context.Context, name string, f func(context.Context) (map[string]float64, error)) (time.Duration, map[string]float64, bool) {
	ctx, span := r.tr.Start(ctx, name)
	t := time.Now()
	layer, err := f(ctx)
	d := time.Since(t)
	span.End(err)
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: FAILED %s: %v\n", name, err)
		return d, nil, false
	}
	return d, layer, true
}

// layerValues is the median of every per-layer sample, plus the
// tracing overhead: traced wall_s minus untraced wall_s.
func (r *runner) layerValues(m measurement) map[string]float64 {
	out := map[string]float64{}
	for k, xs := range r.samples {
		out[k] = median(xs)
	}
	out["trace_overhead_s"] = median(m.tracedWalls) - m.wall
	return out
}

// writeTrace writes the run's spans as NDJSON: a provenance-stamped
// meta line, then one line per finished span.
func writeTrace(path string, opts options, prov provenance, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	meta := map[string]any{"type": "meta", "workload": opts.workload, "seed": opts.seed, "provenance": prov}
	err = enc.Encode(meta)
	for _, s := range tr.Spans() {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
