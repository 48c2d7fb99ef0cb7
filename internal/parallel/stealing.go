package parallel

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
)

// Work-stealing dispatch. The shared-counter scheduler (forEachCtx)
// serializes every dispatch on one atomic cache line; fine
// for coarse tasks, but the line ping-pongs across cores and offers no
// locality. ForEachStealingErr instead seeds each worker with a
// contiguous block of task indices in a private deque: the owner pops
// from its own deque with no cross-core traffic, and only workers that
// run dry touch anyone else's, stealing from the most loaded victim —
// so skewed workloads (poa windows vary ~10x in cell count) rebalance
// while uniform ones never contend at all.
//
// Deque discipline is the classic LIFO-pop/FIFO-steal split: the
// seeded block is conceptually pushed in descending index order, so
// the owner's LIFO pop walks its block in ascending order (cache-
// friendly, same order the sequential path uses) while a thief's FIFO
// steal takes the oldest-pushed — highest — indices from the far end,
// the work the owner would reach last. Thieves take half the victim's
// remaining range per steal, so a large imbalance settles in O(log n)
// steals instead of one task at a time. A mutex per deque is plenty:
// every kernel task here is microseconds to milliseconds of DP, so the
// uncontended lock is noise and the contended case is rare by design.
//
// Panic isolation, cancellation, and observability match forEachCtx
// exactly (same PanicError type and first-panic-wins contract, same
// ctx.Err() dispatch check, same task-latency histogram and
// utilization/workers/tasks gauges), plus a parallel.steals counter.

// stealDeque holds one worker's remaining seeded range [lo, hi).
// Owners pop lo; thieves split off the top half.
type stealDeque struct {
	mu sync.Mutex
	lo int
	hi int
	_  perf.CacheLinePad // keep neighbours' locks off this line
}

// pop takes the owner's next task (ascending order).
func (d *stealDeque) pop() (int, bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, false
	}
	i := d.lo
	d.lo++
	d.mu.Unlock()
	return i, true
}

// remaining reports how many tasks the deque still holds (victim
// selection reads this under the lock so -race stays clean).
func (d *stealDeque) remaining() int {
	d.mu.Lock()
	r := d.hi - d.lo
	d.mu.Unlock()
	return r
}

// steal splits off the top half of the remaining range (at least one
// task) for a thief to take home.
func (d *stealDeque) steal() (lo, hi int, ok bool) {
	d.mu.Lock()
	rem := d.hi - d.lo
	if rem <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	take := (rem + 1) / 2
	hi = d.hi
	lo = hi - take
	d.hi = lo
	d.mu.Unlock()
	return lo, hi, true
}

// refill installs a stolen range as the (empty) owner's new block.
func (d *stealDeque) refill(lo, hi int) {
	d.mu.Lock()
	d.lo, d.hi = lo, hi
	d.mu.Unlock()
}

// forEachStealingCtx runs fn(worker, task) for every task in [0,n) on
// `threads` workers with per-worker deques and skew-aware stealing.
// Cancellation, panic isolation, and observability follow forEachCtx:
// dispatch stops once ctx is cancelled (running tasks finish), the
// first worker panic wins and returns as a *PanicError, and the same
// histogram/gauges are recorded plus a parallel.steals counter.
func forEachStealingCtx(ctx context.Context, n, threads int, fn func(worker, task int)) error {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	if n <= 0 {
		return nil
	}

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
				// panicking frames, same as forEachCtx.
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

	var steals int64
	if threads <= 1 {
		for i := 0; i < n && !stop.Load(); i++ {
			if ctx.Err() != nil {
				break
			}
			runTask(0, i)
		}
	} else {
		// Seed each deque with a balanced contiguous block.
		deques := make([]stealDeque, threads)
		for w := 0; w < threads; w++ {
			deques[w].lo = w * n / threads
			deques[w].hi = (w + 1) * n / threads
		}
		var wg sync.WaitGroup
		wg.Add(threads)
		for w := 0; w < threads; w++ {
			go func(worker int) {
				defer wg.Done()
				own := &deques[worker]
				for !stop.Load() && ctx.Err() == nil {
					i, ok := own.pop()
					if !ok {
						// Skew-aware victim selection: steal from the
						// worker with the most remaining tasks.
						victim, most := -1, 0
						for v := range deques {
							if v == worker {
								continue
							}
							if rem := deques[v].remaining(); rem > most {
								most = rem
								victim = v
							}
						}
						if victim < 0 {
							return // every deque drained
						}
						lo, hi, ok := deques[victim].steal()
						if !ok {
							continue // lost the race; rescan
						}
						own.refill(lo, hi)
						atomic.AddInt64(&steals, 1)
						continue
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
		o.Counter("parallel.steals", label).Add(uint64(steals))
	}

	if perr != nil {
		return perr
	}
	return ctx.Err()
}

// ForEachStealingErr is ForEachCtxErr over the stealing scheduler:
// error-returning tasks, first error cancels dispatch, identical
// panic/parent-cancellation precedence.
func ForEachStealingErr(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error) error {
	return errDispatch(ctx, n, threads, fn, forEachStealingCtx)
}
