// Package tuning holds the fixed dispatch constants of the
// memory-bound and run-length kernels. Each one picks between code
// paths that produce bit-identical output, so a value only moves speed.
// They are constants, not measured per host, so that one input always
// takes one code path.
package tuning

// Each value is the one a per-host microprobe picked most often on a
// 2-core x86-64 AVX2 host.
const (
	// FMIndexBatchWidth is the lanes in flight in fmindex's lock-step
	// SMEM engine; any width gives identical SMEMs.
	FMIndexBatchWidth = 16
	// KmerCntWaveWidth is the k-mer slots kmercnt prefetches per wave;
	// any width gives identical tables.
	KmerCntWaveWidth = 16
	// PileupShortRunMin is the match-run length from which pileup uses
	// the SWAR gather over the byte walk; counts are identical either
	// way.
	PileupShortRunMin = 8
	// PileupWordRunMin is the match-run length from which pileup uses
	// the packed word walk over the gather; counts are identical either
	// way.
	PileupWordRunMin = 32
)

// Resolved is one constant's name and value, for provenance stamps.
type Resolved struct {
	Name  string
	Value int
}

// ResolveAll returns every constant, sorted by name.
func ResolveAll() []Resolved {
	return []Resolved{
		{"fmindex.batch_width", FMIndexBatchWidth},
		{"kmercnt.wave_width", KmerCntWaveWidth},
		{"pileup.short_run_min", PileupShortRunMin},
		{"pileup.word_run_min", PileupWordRunMin},
	}
}
