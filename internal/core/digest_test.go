package core

import (
	"context"
	"testing"

	"repro/internal/phmm"
)

// TestPhmmDigestThreadAndPolicyInvariant: phmm's output digest is a
// function of the answers alone, so it repeats at every thread count,
// whatever the dispatch order. The giant regions are dropped to
// keep the test short; the rest still includes regions large enough
// to be split into read blocks.
func TestPhmmDigestThreadAndPolicyInvariant(t *testing.T) {
	var b phmmBench
	b.Prepare(Small, 42)
	var kept []*phmm.Region
	for _, rg := range b.regions {
		if len(rg.Reads) < 100 {
			kept = append(kept, rg)
		}
	}
	b.regions = kept
	var want float64
	for _, threads := range []int{1, 2, 4, 8} {
		st, err := b.RunCtx(context.Background(), threads)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := st.Extra["digest"]
		if !ok || got == 0 {
			t.Fatalf("threads %d: digest = %v (present %v)", threads, got, ok)
		}
		if want == 0 {
			want = got
		} else if got != want {
			t.Errorf("threads %d: digest %v, want %v", threads, got, want)
		}
		if got != float64(uint64(got)) || got >= 1<<52 {
			t.Errorf("digest %v is not an exact 52-bit integer", got)
		}
	}
}
