// Bench history: an append-only NDJSON trajectory of reports, one per
// PR, and the trend analysis over it. A single committed baseline can
// only say "no worse than last time"; the trajectory says "no worse
// than we have ever shown this kernel to run", which is the claim a
// benchmark suite actually makes. The committed BENCH_PR3->PR5 files
// already contained drift the single-baseline gate never flagged
// (pileup/count 1.43x -> 1.13x); TrendGate exists to fail on exactly
// that shape.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// AppendHistory validates r and appends it to the NDJSON file at path
// as one compact line, creating the file if needed. History records
// should carry Label and Host; the trend gate groups by host class.
func AppendHistory(path string, r *Report) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("benchjson: refusing to append invalid record: %w", err)
	}
	sortEntries(r)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	end, err := healTail(f)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(append(line, '\n'), end); err != nil {
		return err
	}
	return f.Close()
}

// healTail returns the offset appends should start at. A file whose
// last byte is not '\n' holds a partial record from a write that died
// mid-line; gluing a new record onto it would corrupt BOTH lines, so
// the partial tail is cut back to the last complete line instead —
// the only spot an append-only file legitimately self-repairs.
func healTail(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if size == 0 {
		return 0, nil
	}
	// Walk back in chunks until the last newline is found.
	buf := make([]byte, 64*1024)
	pos := size
	for pos > 0 {
		n := int64(len(buf))
		if n > pos {
			n = pos
		}
		if _, err := f.ReadAt(buf[:n], pos-n); err != nil {
			return 0, err
		}
		if pos == size && buf[n-1] == '\n' {
			return size, nil // clean tail, append at the end
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				cut := pos - n + i + 1
				return cut, f.Truncate(cut)
			}
		}
		pos -= n
	}
	// No newline at all: the whole file is one partial line.
	return 0, f.Truncate(0)
}

// ReadHistory parses an NDJSON history stream in order. A malformed or
// invalid final line is dropped and reported via dropped — the
// recovery path for a truncated append (process killed mid-write);
// the appender's next run simply rewrites it. A malformed line
// anywhere earlier is a hard error: middles of append-only files do
// not truncate themselves, so that is corruption worth stopping on.
func ReadHistory(rd io.Reader) (records []*Report, dropped bool, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var pendingErr error
	line := 0
	for sc.Scan() {
		text := sc.Bytes()
		if len(trimSpaceBytes(text)) == 0 {
			continue
		}
		line++
		if pendingErr != nil {
			// The bad line was not the last one after all.
			return nil, false, pendingErr
		}
		var r Report
		if e := json.Unmarshal(text, &r); e != nil {
			pendingErr = fmt.Errorf("benchjson: history line %d: %w", line, e)
			continue
		}
		if e := r.Validate(); e != nil {
			pendingErr = fmt.Errorf("benchjson: history line %d: %w", line, e)
			continue
		}
		records = append(records, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("benchjson: history: %w", err)
	}
	return records, pendingErr != nil, nil
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// ReadHistoryFile is ReadHistory over a file path.
func ReadHistoryFile(path string) (records []*Report, dropped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	return ReadHistory(f)
}

// Trend is one pair's trajectory within one host class: parallel
// slices of per-record labels, speedups and optimized ns/op, in
// history order.
type Trend struct {
	Kernel, Pair string
	HostKey      string // "" when records carry no host
	Threads      int    // thread count for */threads pairs, else 0
	Skipped      bool   // thread pair the host class cannot exercise
	Labels       []string
	Speedups     []float64
	OptNs        []float64
}

// First, Best and Last summarize the speedup trajectory.
func (t *Trend) First() float64 { return t.Speedups[0] }
func (t *Trend) Last() float64  { return t.Speedups[len(t.Speedups)-1] }
func (t *Trend) Best() float64 {
	best := t.Speedups[0]
	for _, s := range t.Speedups[1:] {
		if s > best {
			best = s
		}
	}
	return best
}

// fastestNs returns the fastest optimized ns/op ever recorded.
func (t *Trend) fastestNs() float64 {
	best := t.OptNs[0]
	for _, v := range t.OptNs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// DriftPct is how far the latest speedup sits below the best ever, as
// a percentage (positive = regressed, 0 = at best).
func (t *Trend) DriftPct() float64 {
	best := t.Best()
	if best <= 0 {
		return 0
	}
	return 100 * (best - t.Last()) / best
}

// hostKeyOf allows grouping records with and without host stamps.
func hostKeyOf(r *Report) string {
	if r.Host == nil {
		return ""
	}
	return r.Host.Key()
}

// labelOf falls back to a positional label for unstamped records.
func labelOf(r *Report, i int) string {
	if r.Label != "" {
		return r.Label
	}
	return fmt.Sprintf("#%d", i+1)
}

// Trends builds every pair's trajectory from history records, grouped
// by host class: speedups measured on different hardware are not one
// curve, so a host change starts a new trajectory rather than
// manufacturing a fake regression (or masking a real one). Trends are
// ordered by host key, then kernel, then pair.
func Trends(history []*Report) []*Trend {
	type key struct{ host, kernel, pair string }
	byKey := map[key]*Trend{}
	var order []key
	for i, r := range history {
		hk := hostKeyOf(r)
		label := labelOf(r, i)
		for j := range r.Entries {
			e := &r.Entries[j]
			k := key{hk, e.Kernel, e.Pair}
			t := byKey[k]
			if t == nil {
				t = &Trend{Kernel: e.Kernel, Pair: e.Pair, HostKey: hk, Threads: e.ThreadCount()}
				if tc := e.ThreadCount(); tc > 1 && r.Host != nil && r.Host.NumCPU < tc {
					t.Skipped = true
				}
				byKey[k] = t
				order = append(order, k)
			}
			t.Labels = append(t.Labels, label)
			t.Speedups = append(t.Speedups, e.Speedup)
			t.OptNs = append(t.OptNs, e.Optimized.NsPerOp)
		}
	}
	out := make([]*Trend, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].HostKey != out[j].HostKey {
			return out[i].HostKey < out[j].HostKey
		}
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].Pair < out[j].Pair
	})
	return out
}

// TrendOptions tunes TrendGate. Zero values take the defaults.
type TrendOptions struct {
	// BelowBest fails a pair whose latest speedup sits more than this
	// fraction below its best-ever (default 0.18).
	BelowBest float64
	// NsAboveBest is the corroboration margin: a speedup drift only
	// fails when the optimized path's own ns/op is also worse than its
	// best-ever by more than this fraction (default 0.15). A ratio can
	// collapse because the *baseline* got faster — a compiler upgrade,
	// a measurement on a lighter-loaded box — and that is not an
	// optimized-path regression; without corroboration it is reported
	// as a warning, not a failure. The committed history holds a live
	// specimen: pileup/count fell 1.43x -> 1.13x with the packed path
	// itself 18% over its best (real, fails), while a later record
	// shows a sub-best ratio with the packed path at a record low
	// (baseline movement, warns).
	NsAboveBest float64
	// MonotoneK fails a pair whose speedup has strictly decreased over
	// its last K same-host records (default 3), with the same ns
	// corroboration, catching slow bleed before it exceeds BelowBest.
	MonotoneK int
	// MonotoneMin is the cumulative decline over the K-window below
	// which a monotone slide is ignored as noise (default 0.05).
	MonotoneMin float64
}

func (o TrendOptions) withDefaults() TrendOptions {
	if o.BelowBest <= 0 {
		o.BelowBest = 0.18
	}
	if o.NsAboveBest <= 0 {
		o.NsAboveBest = 0.15
	}
	if o.MonotoneK <= 0 {
		o.MonotoneK = 3
	}
	if o.MonotoneMin <= 0 {
		o.MonotoneMin = 0.05
	}
	return o
}

// TrendVerdict is TrendGate's outcome: hard failures, uncorroborated
// drifts worth reading (warnings), and pairs skipped as meaningless on
// their host class.
type TrendVerdict struct {
	Failures []Regression
	Warnings []Regression
	Skipped  []Skip
}

// TrendGate judges the newest record of each host class against that
// class's earlier records. Only the latest record can fail the gate —
// history is immutable context, not something to re-litigate — so CI
// appends the fresh record and gates it in one step. Pairs appearing
// for the first time in their host class pass vacuously (they ARE the
// trend now). Thread pairs the host cannot exercise are skipped.
func TrendGate(history []*Report, opt TrendOptions) TrendVerdict {
	opt = opt.withDefaults()
	var v TrendVerdict
	if len(history) == 0 {
		return v
	}
	last := history[len(history)-1]
	lastKey := hostKeyOf(last)
	for _, t := range Trends(history) {
		if t.HostKey != lastKey || t.Labels[len(t.Labels)-1] != labelOf(last, len(history)-1) {
			continue // pair absent from the newest record, or other host class
		}
		if last.Find(t.Kernel, t.Pair) == nil {
			continue // positional-label collision guard; gate only real entries
		}
		if t.Skipped {
			v.Skipped = append(v.Skipped, Skip{t.Kernel, t.Pair, fmt.Sprintf(
				"thread pair needs %d cores, host %s cannot exercise it", t.Threads, t.HostKey)})
			continue
		}
		if len(t.Speedups) < 2 {
			continue
		}
		lastS, bestS := t.Last(), t.Best()
		lastNs, bestNs := t.OptNs[len(t.OptNs)-1], t.fastestNs()
		nsCorroborated := bestNs > 0 && lastNs > bestNs*(1+opt.NsAboveBest)
		var reasons, warns []string
		if bestS > 0 && lastS < bestS*(1-opt.BelowBest) {
			msg := fmt.Sprintf("speedup %.2fx is %.0f%% below best-ever %.2fx",
				lastS, t.DriftPct(), bestS)
			if nsCorroborated {
				reasons = append(reasons, fmt.Sprintf(
					"%s and optimized path is %.0f%% over its best %.0fns/op",
					msg, 100*(lastNs-bestNs)/bestNs, bestNs))
			} else {
				warns = append(warns, msg+" but optimized ns/op holds; baseline-side movement")
			}
		}
		if k := opt.MonotoneK; len(t.Speedups) >= k {
			w := t.Speedups[len(t.Speedups)-k:]
			monotone := true
			for i := 1; i < len(w); i++ {
				if !(w[i] < w[i-1]) {
					monotone = false
					break
				}
			}
			decline := 0.0
			if w[0] > 0 {
				decline = (w[0] - w[len(w)-1]) / w[0]
			}
			if monotone && decline >= opt.MonotoneMin {
				msg := fmt.Sprintf("speedup fell monotonically over last %d records (%.2fx -> %.2fx)",
					k, w[0], w[len(w)-1])
				if nsCorroborated {
					reasons = append(reasons, msg)
				} else {
					warns = append(warns, msg+" but optimized ns/op holds")
				}
			}
		}
		for _, r := range reasons {
			v.Failures = append(v.Failures, Regression{t.Kernel, t.Pair, r})
		}
		for _, w := range warns {
			v.Warnings = append(v.Warnings, Regression{t.Kernel, t.Pair, w})
		}
	}
	return v
}

// Sparkline renders values as a compact unicode bar strip for trend
// tables, scaled to the series' own min/max. A flat series renders as
// mid-height bars; NaN-safe.
func Sparkline(vals []float64) string {
	const ramp = "▁▂▃▄▅▆▇█"
	runes := []rune(ramp)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	out := make([]rune, 0, len(vals))
	for _, v := range vals {
		if math.IsNaN(v) {
			out = append(out, ' ')
			continue
		}
		idx := len(runes) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(runes)-1))
		}
		out = append(out, runes[idx])
	}
	return string(out)
}
