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

// phmmSuiteSmallDigest is phmm's digest on the full suite-small input
// at data seed 42: the answers the lane, scalar and fallback paths
// give, pinned bit for bit. The flush-to-zero row kernel leaves it
// unchanged.
const phmmSuiteSmallDigest = 2119040548131063

// TestPhmmDigestPinnedSuiteSmall pins phmm's answers on the full
// suite-small input, giant region included, at 1 and 2 threads. The
// scalar_cells counter must repeat across thread counts too.
func TestPhmmDigestPinnedSuiteSmall(t *testing.T) {
	var b phmmBench
	b.Prepare(Small, 42)
	var scalar float64
	for _, threads := range []int{1, 2} {
		st, err := b.RunCtx(context.Background(), threads)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Extra["digest"]; got != phmmSuiteSmallDigest {
			t.Errorf("threads %d: digest %v, want %v", threads, uint64(got), uint64(phmmSuiteSmallDigest))
		}
		got, ok := st.Extra["scalar_cells"]
		if !ok || got <= 0 || got >= st.Extra["cells"] {
			t.Errorf("threads %d: scalar_cells = %v (present %v), want in (0, cells=%v)", threads, got, ok, st.Extra["cells"])
		}
		if scalar == 0 {
			scalar = got
		} else if got != scalar {
			t.Errorf("threads %d: scalar_cells %v, want %v as at 1 thread", threads, got, scalar)
		}
	}
}
