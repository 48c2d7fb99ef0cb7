package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// chunked runs error-free tasks on ForEachChunkedCtxErr.
func chunked(ctx context.Context, n, threads, chunk int, fn func(worker, task int)) error {
	return ForEachChunkedCtxErr(ctx, n, threads, chunk, func(_ context.Context, worker, task int) error {
		fn(worker, task)
		return nil
	})
}

func TestForEachChunkedCtxCoversAllTasks(t *testing.T) {
	for _, chunk := range []int{1, 3, 7, 64} {
		const n = 100
		var hits [n]int32
		err := chunked(context.Background(), n, 4, chunk, func(worker, task int) {
			atomic.AddInt32(&hits[task], 1)
		})
		if err != nil {
			t.Fatalf("chunk=%d: err = %v", chunk, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("chunk=%d: task %d ran %d times", chunk, i, h)
			}
		}
	}
}

func TestForEachChunkedCtxErrStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	err := ForEachChunkedCtxErr(context.Background(), 1000, 2, 10, func(ctx context.Context, worker, task int) error {
		atomic.AddInt64(&ran, 1)
		if task == 55 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if atomic.LoadInt64(&ran) == 1000 {
		t.Fatal("error did not stop dispatch")
	}
}

func TestForEachChunkedCtxErrCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachChunkedCtxErr(ctx, 100, 2, 8, func(ctx context.Context, worker, task int) error {
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachChunkedCtxPanicIsolation(t *testing.T) {
	err := chunked(context.Background(), 100, 2, 10, func(worker, task int) {
		if task == 42 {
			panic("kaboom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

// The chunked variant must feed the same observability instruments
// ForEachCtxErr records: one latency observation per chunk, worker
// utilization, and a completed-task count equal to the chunk count.
func TestForEachChunkedCtxRecordsMetrics(t *testing.T) {
	o := obs.NewObserver()
	ctx := obs.With(context.Background(), o)
	ctx = obs.WithLabel(ctx, "chunky")
	const n, chunk = 40, 10
	if err := chunked(ctx, n, 2, chunk, func(worker, task int) {}); err != nil {
		t.Fatal(err)
	}
	hist := o.Histogram("parallel.task_latency_ns", "chunky", "ns")
	if got, want := hist.Count(), uint64(n/chunk); got != want {
		t.Fatalf("latency observations = %d, want %d (one per chunk)", got, want)
	}
	if got := o.Counter("parallel.tasks_completed", "chunky").Value(); got != uint64(n/chunk) {
		t.Fatalf("tasks_completed = %d, want %d", got, n/chunk)
	}
}

func TestChunkFor(t *testing.T) {
	if c := ChunkFor(10, 4); c != 1 {
		t.Fatalf("small n: chunk = %d, want 1", c)
	}
	if c := ChunkFor(10_000, 4); c < 2 || c > 64 {
		t.Fatalf("large n: chunk = %d, want in [2,64]", c)
	}
	if c := ChunkFor(1_000_000, 1); c != 64 {
		t.Fatalf("huge n: chunk = %d, want capped at 64", c)
	}
}
