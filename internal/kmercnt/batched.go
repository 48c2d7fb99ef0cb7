package kmercnt

import (
	"unsafe"

	"repro/internal/genome"
	"repro/internal/prefetch"
	"repro/internal/seq2"
	"repro/internal/tuning"
)

// Wave-batched counting: the paper observes that kmer-cnt's stalls
// "could potentially be mitigated by implementing software prefetching,
// since the k-mers to be looked up are known in advance". This is the
// hash-table sibling of fmindex's lock-step batch engine: k-mers are
// collected into a wave, every wave member's primary slot is software-
// prefetched (PREFETCHT0/PRFM via internal/prefetch), and the inserts
// then run over lines already in flight — W independent misses overlap
// instead of serializing. Insert order within a wave is unchanged, so
// tables are bit-identical to the serial counters'.

// Prefetcher is the optional MemTracer extension for software-prefetch
// visibility (cachesim.Hierarchy implements it). Tracers without it see
// only the demand stream — identical, insert for insert, to the serial
// counters'.
type Prefetcher interface {
	Prefetch(addr uint64, size int)
}

// prefetchSlot pulls a key's primary slot lines toward the core and
// mirrors them into pt's prefetch stream (at the same synthetic
// addresses trace uses). Collision chains past the primary slot are
// not prefetched — they are the rare case by construction.
func (t *Table) prefetchSlot(key uint64, pt Prefetcher) {
	slot := hash(key) & t.mask
	prefetch.Ptr(unsafe.Pointer(&t.keys[slot]))
	prefetch.Ptr(unsafe.Pointer(&t.counts[slot]))
	if pt != nil {
		pt.Prefetch(slot*8, 8)
		pt.Prefetch(1<<40+slot*4, 4)
	}
}

// flushWave prefetches every wave member's slot, then inserts them in
// collection order. A mid-wave grow makes the remaining prefetches
// stale (wrong mask) — harmless: prefetch is advisory, inserts recompute.
func (t *Table) flushWave(wave []uint64, pt Prefetcher) {
	for _, key := range wave {
		t.prefetchSlot(key, pt)
	}
	for _, key := range wave {
		t.Increment(key)
	}
}

// waveScratch returns the table's wave buffer, sized to
// tuning.KmerCntWaveWidth: how many k-mer slots are prefetched before
// the first insert consumes one. Any width gives identical tables.
func (t *Table) waveScratch() []uint64 {
	if cap(t.wave) < tuning.KmerCntWaveWidth {
		t.wave = make([]uint64, 0, tuning.KmerCntWaveWidth)
	}
	return t.wave[:0]
}

// CountSeqBatched inserts every canonical k-mer of s using the
// wave-batched schedule and returns the k-mer count. Tables are
// identical to CountSeq's.
func CountSeqBatched(t *Table, s genome.Seq, k int) uint64 {
	wave := t.waveScratch()
	pt, _ := t.Tracer.(Prefetcher)
	var n uint64
	genome.EachKmer(s, k, func(_ int, code uint64) {
		wave = append(wave, Canonical(code, k))
		n++
		if len(wave) == cap(wave) {
			t.flushWave(wave, pt)
			wave = wave[:0]
		}
	})
	t.flushWave(wave, pt)
	t.wave = wave[:0]
	return n
}

// CountSeqPackedBatched is CountSeqPacked on the wave-batched schedule:
// the 2-bit stream decoder fills the wave, the flush overlaps the slot
// misses. This is the kernel's hot path (RunKernelCtx). Tables are
// identical to CountSeqPacked's.
func CountSeqPackedBatched(t *Table, p seq2.Packed, k int) uint64 {
	n := p.Len()
	if n < k || k <= 0 || k > 31 {
		return 0
	}
	wave := t.waveScratch()
	pt, _ := t.Tracer.(Prefetcher)
	shift := 2 * uint(k-1)
	mask := uint64(1)<<(2*uint(k)) - 1
	words := p.WordsSlice()
	var code, rcode uint64
	var w uint64
	var count uint64
	for i := 0; i < n; i++ {
		if i%seq2.BasesPerWord == 0 {
			w = words[i/seq2.BasesPerWord]
		}
		b := w & 3
		w >>= 2
		code = (code<<2 | b) & mask
		rcode = rcode>>2 | (3-b)<<shift
		if i >= k-1 {
			canon := code
			if rcode < code {
				canon = rcode
			}
			wave = append(wave, canon)
			count++
			if len(wave) == cap(wave) {
				t.flushWave(wave, pt)
				wave = wave[:0]
			}
		}
	}
	t.flushWave(wave, pt)
	t.wave = wave[:0]
	return count
}
