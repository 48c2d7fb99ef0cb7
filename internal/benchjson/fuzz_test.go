package benchjson

import (
	"bytes"
	"testing"
	"unicode/utf8"
)

// FuzzReadHistory: no input panics ReadHistory or the gates that run
// on what it returns. A failed read returns no records; every record
// returned is valid; Trends, TrendGate, Sparkline and CompareDetailed
// run on any history that parses, and their outputs keep their shape.
// The committed corpus is under testdata/fuzz/FuzzReadHistory.
func FuzzReadHistory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records, _, err := ReadHistory(bytes.NewReader(data))
		if err != nil {
			if records != nil {
				t.Fatalf("%d records returned with error %v", len(records), err)
			}
			return
		}
		for i, r := range records {
			if err := r.Validate(); err != nil {
				t.Fatalf("record %d returned invalid: %v", i, err)
			}
		}
		for _, tr := range Trends(records) {
			n := len(tr.Labels)
			if n == 0 || len(tr.Speedups) != n || len(tr.OptNs) != n {
				t.Fatalf("trend %s/%s: %d labels, %d speedups, %d ns", tr.Kernel, tr.Pair, n, len(tr.Speedups), len(tr.OptNs))
			}
			_, _, _, _ = tr.First(), tr.Best(), tr.Last(), tr.DriftPct()
			checkSparkline(t, tr.Speedups)
			checkSparkline(t, tr.OptNs)
		}
		v := TrendGate(records, TrendOptions{})
		if len(records) > 0 {
			last := records[len(records)-1]
			for _, g := range append(v.Failures, v.Warnings...) {
				if last.Find(g.Kernel, g.Pair) == nil {
					t.Fatalf("trend gate judged %s/%s, absent from the newest record", g.Kernel, g.Pair)
				}
			}
		}
		for i := 1; i < len(records); i++ {
			CompareDetailed(records[i-1], records[i], CompareOptions{NsTolerance: 1.5, SpeedupTolerance: 1.5})
		}
	})
}

// FuzzRead: no input panics Read. A report that parses is valid,
// survives a Write/Read round trip, compares clean against itself and
// passes the trend gate as a one-record history. The committed corpus
// is under testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("Read returned an invalid report: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, r); err != nil {
			t.Fatalf("Write: %v", err)
		}
		again, err := Read(&buf)
		if err != nil || len(again.Entries) != len(r.Entries) {
			t.Fatalf("round trip: %v", err)
		}
		if res := CompareDetailed(r, again, CompareOptions{}); len(res.Regressions) > 0 {
			t.Fatalf("self-compare regressed: %v", res.Regressions)
		}
		if v := TrendGate([]*Report{r}, TrendOptions{}); len(v.Failures) > 0 {
			t.Fatalf("one-record history failed the trend gate: %v", v.Failures)
		}
		for _, tr := range Trends([]*Report{r}) {
			checkSparkline(t, tr.Speedups)
		}
	})
}

// checkSparkline renders vals and checks one rune per value.
func checkSparkline(t *testing.T, vals []float64) {
	t.Helper()
	if s := Sparkline(vals); utf8.RuneCountInString(s) != len(vals) {
		t.Fatalf("Sparkline(%v) = %q, want %d runes", vals, s, len(vals))
	}
}
