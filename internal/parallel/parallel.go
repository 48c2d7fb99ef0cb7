// Package parallel provides the dynamic task scheduling used by every
// multi-threaded GenomicsBench kernel, mirroring the paper's use of
// OpenMP dynamic scheduling, plus the harness that measures thread
// scaling for Figure 7.
//
// When an obs.Observer is installed in the context (the suite driver
// does this), the scheduler records a per-task latency histogram and a
// worker-utilization gauge per run, labeled with the kernel name from
// obs.Label. Without an observer the only cost is a context lookup.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
)

// PanicError is a worker panic recovered by the schedulers: they
// convert the panic into an error so one bad task cannot take down
// the whole process. The stack is captured at the panic site.
type PanicError struct {
	Task  int    // task index whose fn panicked
	Value any    // the recovered panic value
	Stack []byte // goroutine stack at the panic site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Task, e.Value)
}

// PanicValue returns the recovered panic value. Together with
// PanicStack it lets error-wrapping layers (internal/resilience)
// recognize scheduler-recovered panics without importing this package.
func (e *PanicError) PanicValue() any { return e.Value }

// PanicStack returns the stack captured at the panic site.
func (e *PanicError) PanicStack() []byte { return e.Stack }

// ForEach runs fn(i) for every i in [0,n) on `threads` workers that pull
// task indices from a shared atomic counter — the moral equivalent of
// `#pragma omp parallel for schedule(dynamic)`. fn receives the worker
// id so kernels can keep per-worker counters without locking.
//
// A panicking task re-panics here (in the caller's goroutine, wrapped
// in a *PanicError carrying the worker stack) instead of crashing the
// process from a worker goroutine. Cancellable callers should use
// ForEachCtxErr.
func ForEach(n, threads int, fn func(worker, task int)) {
	if err := forEachCtx(context.Background(), n, threads, fn); err != nil {
		// With a background context the only possible failure is a
		// recovered worker panic; surface it to preserve the historical
		// panicking contract.
		panic(err)
	}
}

// workerClock accumulates one worker's busy time and completed-task
// count. The trailing pad keeps adjacent workers' clocks on separate
// cache lines (the accumulators are written from every task).
type workerClock struct {
	busyNs int64
	tasks  int64
	_      perf.CacheLinePad
}

// forEachCtx is ForEach with cooperative cancellation and panic
// isolation: dispatch stops once ctx is cancelled (tasks already
// running finish), and a panicking task stops dispatch and is returned
// as a *PanicError instead of crashing the process. The first panic
// wins; at most one error is returned. Returns ctx.Err() when the run
// was cancelled, nil when every task completed.
func forEachCtx(ctx context.Context, n, threads int, fn func(worker, task int)) error {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	if n <= 0 {
		return nil
	}

	// Observability: per-task latency histogram plus per-run worker
	// utilization, labeled by the kernel installed via obs.WithLabel.
	// All handles are nil (no-op) when no observer is installed.
	var (
		taskHist *obs.Histogram
		clocks   []workerClock
		t0       time.Time
	)
	o := obs.From(ctx)
	label := ""
	if o != nil {
		label = obs.Label(ctx)
		taskHist = o.Histogram("parallel.task_latency_ns", label, "ns")
		clocks = make([]workerClock, threads)
		t0 = time.Now()
	}

	var stop atomic.Bool
	var once sync.Once
	var perr *PanicError
	runTask := func(worker, task int) {
		defer func() {
			if r := recover(); r != nil {
				// debug.Stack in a deferred recover still sees the
				// panicking frames, so the error carries the real site.
				stack := debug.Stack()
				once.Do(func() {
					perr = &PanicError{Task: task, Value: r, Stack: stack}
				})
				stop.Store(true)
			}
		}()
		if taskHist == nil {
			fn(worker, task)
			return
		}
		start := time.Now()
		fn(worker, task)
		d := time.Since(start)
		taskHist.Observe(float64(d.Nanoseconds()))
		clocks[worker].busyNs += d.Nanoseconds()
		clocks[worker].tasks++
	}
	if threads <= 1 {
		for i := 0; i < n && !stop.Load(); i++ {
			if ctx.Err() != nil {
				break
			}
			runTask(0, i)
		}
	} else {
		var next int64
		var wg sync.WaitGroup
		wg.Add(threads)
		for w := 0; w < threads; w++ {
			go func(worker int) {
				defer wg.Done()
				// ctx.Err is checked before every dispatch so
				// cancellation stops new work deterministically; for the
				// Background context (the ForEach path) it is free.
				for !stop.Load() && ctx.Err() == nil {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= n {
						return
					}
					runTask(worker, i)
				}
			}(w)
		}
		wg.Wait()
	}

	if o != nil {
		wall := time.Since(t0)
		var busy, done int64
		for i := range clocks {
			busy += clocks[i].busyNs
			done += clocks[i].tasks
		}
		if wall > 0 {
			util := float64(busy) / (float64(wall.Nanoseconds()) * float64(threads))
			o.Gauge("parallel.worker_utilization", label).Set(util)
		}
		o.Gauge("parallel.workers", label).Set(float64(threads))
		o.Counter("parallel.tasks_completed", label).Add(uint64(done))
	}

	if perr != nil {
		return perr
	}
	return ctx.Err()
}

// ForEachCtxErr is forEachCtx for error-returning tasks: the first
// non-nil error a task returns cancels dispatch (in-flight tasks
// finish) and is returned — even when that error is context.Canceled
// itself, the recorded task error is what comes back, so callers can
// always attribute the failure. Tasks receive the derived context so
// nested blocking work (fault delays, IO) observes the cancellation
// too. Worker panics still surface as *PanicError, taking precedence
// over task errors; parent-context cancellation takes precedence over
// everything except panics and surfaces as the parent's cause
// (context.Canceled or context.DeadlineExceeded).
func ForEachCtxErr(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error) error {
	return errDispatch(ctx, n, threads, fn, forEachCtx)
}

// errDispatch adapts any plain scheduler (forEachCtx-shaped run
// function) to the error-returning task contract; ForEachCtxErr and
// ForEachStealingErr share it so the subtle error/panic/cancellation
// precedence lives in exactly one place.
func errDispatch(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error,
	run func(ctx context.Context, n, threads int, fn func(worker, task int)) error) error {
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// The first task error is recorded here, not recovered from
	// context.Cause: a task may legitimately return context.Canceled
	// (e.g. a stale deadline bubbled out of nested work), and the
	// cause slot cannot distinguish that from a plain cancellation.
	var errOnce sync.Once
	var taskErr error
	err := run(cctx, n, threads, func(worker, task int) {
		if e := fn(cctx, worker, task); e != nil {
			errOnce.Do(func() { taskErr = e })
			cancel(e)
		}
	})
	if err == nil {
		return nil
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return err
	}
	if ctx.Err() != nil {
		// The parent was cancelled: its cause wins even if a task also
		// errored while dispatch was winding down.
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		return ctx.Err()
	}
	// taskErr was written before cancel(e) and the workers were joined
	// before the scheduler returned, so this read is ordered.
	if taskErr != nil {
		return taskErr
	}
	return err
}

// ForEachChunkedCtxErr is ForEachCtxErr with chunked dispatch: workers
// pull chunks of `chunk` consecutive task indices, cutting scheduling
// overhead for fine-grained tasks. The scheduler metrics count chunks
// (the scheduling unit), and a *PanicError reports the chunk index in
// Task. The first task error stops the chunk immediately (remaining
// indices of that chunk are skipped) and cancels dispatch of further
// chunks.
func ForEachChunkedCtxErr(ctx context.Context, n, threads, chunk int, fn func(ctx context.Context, worker, task int) error) error {
	if chunk <= 1 {
		return ForEachCtxErr(ctx, n, threads, fn)
	}
	chunks := (n + chunk - 1) / chunk
	return ForEachCtxErr(ctx, chunks, threads, func(cctx context.Context, worker, c int) error {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if err := fn(cctx, worker, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// ChunkFor picks a chunk size for n fine-grained tasks on `threads`
// workers: large enough to amortize the shared-counter fetch, small
// enough to keep ~8 chunks per worker for dynamic load balancing.
func ChunkFor(n, threads int) int {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	chunk := n / (threads * 8)
	if chunk < 1 {
		return 1
	}
	if chunk > 64 {
		return 64
	}
	return chunk
}

// ScalingPoint is one measurement of a scaling sweep.
type ScalingPoint struct {
	Threads  int
	Elapsed  time.Duration
	Speedup  float64 // relative to the 1-thread point
	Parallel float64 // efficiency = Speedup/Threads
}

// MeasureScaling runs work(threads) once for each requested thread
// count and reports the speedup curve. work must perform the same
// total job regardless of the thread count.
//
// Speedup is relative to the Threads==1 point wherever it appears in
// threadCounts; when no 1-thread point was measured, the smallest
// thread count is the baseline (so the curve is still monotone-
// comparable, just not anchored at 1.0). Efficiency divides by the
// thread count, substituting GOMAXPROCS for non-positive counts —
// that is how many workers a tc<=0 run actually uses.
func MeasureScaling(threadCounts []int, work func(threads int)) []ScalingPoint {
	elapsed := make([]time.Duration, len(threadCounts))
	for i, tc := range threadCounts {
		runtime.GC() // stabilize allocator state between measurements
		start := time.Now()
		work(tc)
		elapsed[i] = time.Since(start)
	}
	return scalingPoints(threadCounts, elapsed)
}

// scalingPoints derives the speedup curve from measured times. Split
// from the timing loop so baseline selection is testable with
// synthetic durations.
func scalingPoints(threadCounts []int, elapsed []time.Duration) []ScalingPoint {
	// Baseline: the Threads==1 measurement regardless of where it
	// appears in the sweep order; fall back to the smallest positive
	// count (then to the first point) when 1 was not measured.
	baseIdx := -1
	for i, tc := range threadCounts {
		if tc == 1 {
			baseIdx = i
			break
		}
	}
	if baseIdx < 0 {
		for i, tc := range threadCounts {
			if tc <= 0 {
				continue
			}
			if baseIdx < 0 || tc < threadCounts[baseIdx] {
				baseIdx = i
			}
		}
	}
	if baseIdx < 0 && len(threadCounts) > 0 {
		baseIdx = 0
	}
	points := make([]ScalingPoint, 0, len(threadCounts))
	for i, tc := range threadCounts {
		p := ScalingPoint{Threads: tc, Elapsed: elapsed[i]}
		if elapsed[i] > 0 {
			p.Speedup = float64(elapsed[baseIdx]) / float64(elapsed[i])
		}
		den := tc
		if den <= 0 {
			den = runtime.GOMAXPROCS(0)
		}
		if den > 0 {
			p.Parallel = p.Speedup / float64(den)
		}
		points = append(points, p)
	}
	return points
}
