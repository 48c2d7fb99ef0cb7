package tuning

import (
	"sort"
	"testing"
)

// TestResolveAllIncludesRegistered pins the provenance stamp: every
// constant, by name, in sorted order.
func TestResolveAllIncludesRegistered(t *testing.T) {
	got := ResolveAll()
	want := []Resolved{
		{"fmindex.batch_width", FMIndexBatchWidth},
		{"kmercnt.wave_width", KmerCntWaveWidth},
		{"pileup.short_run_min", PileupShortRunMin},
		{"pileup.word_run_min", PileupWordRunMin},
	}
	if len(got) != len(want) {
		t.Fatalf("ResolveAll returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Name < got[j].Name }) {
		t.Fatal("ResolveAll is not sorted by name")
	}
}
