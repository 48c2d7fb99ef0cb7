package simio

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzReadFastq: no input panics ReadFastq; a failure is a
// *StreamError that counts the records returned with it; every
// returned record is well formed and survives a WriteFastq round trip
// (qualities above 93 are clamped on write). The committed corpus is
// under testdata/fuzz/FuzzReadFastq.
func FuzzReadFastq(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadFastq(bytes.NewReader(data))
		if err != nil {
			var serr *StreamError
			if !errors.As(err, &serr) || serr.Records != len(recs) {
				t.Fatalf("%d records with error %v; want a *StreamError counting them", len(recs), err)
			}
		}
		for i, r := range recs {
			if r.Name == "" || strings.ContainsAny(r.Name, " \t\r\n") || len(r.Qual) != len(r.Seq) {
				t.Fatalf("record %d malformed: %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if err := WriteFastq(&buf, recs); err != nil {
			t.Fatalf("WriteFastq: %v", err)
		}
		again, err := ReadFastq(&buf)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("round trip: %d records, %v; want %d", len(again), err, len(recs))
		}
		for i, r := range recs {
			a := again[i]
			if a.Name != r.Name || !a.Seq.Equal(r.Seq) {
				t.Fatalf("round trip record %d: %+v, want %+v", i, a, r)
			}
			for k, q := range r.Qual {
				if want := min(q, 93); a.Qual[k] != want {
					t.Fatalf("round trip record %d quality %d: %d, want %d", i, k, a.Qual[k], want)
				}
			}
		}
	})
}

// FuzzReadFasta: no input panics ReadFasta; a failure is a
// *StreamError that counts the records returned with it; every
// returned record is well formed and survives a WriteFasta round trip.
// The committed corpus is under testdata/fuzz/FuzzReadFasta.
func FuzzReadFasta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadFasta(bytes.NewReader(data))
		if err != nil {
			var serr *StreamError
			if !errors.As(err, &serr) || serr.Records != len(recs) {
				t.Fatalf("%d records with error %v; want a *StreamError counting them", len(recs), err)
			}
		}
		for i, r := range recs {
			if r.Name == "" || strings.ContainsAny(r.Name, " \t\r\n") {
				t.Fatalf("record %d malformed: %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if err := WriteFasta(&buf, recs); err != nil {
			t.Fatalf("WriteFasta: %v", err)
		}
		again, err := ReadFasta(&buf)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("round trip: %d records, %v; want %d", len(again), err, len(recs))
		}
		for i, r := range recs {
			if a := again[i]; a.Name != r.Name || !a.Seq.Equal(r.Seq) {
				t.Fatalf("round trip record %d: %+v, want %+v", i, a, r)
			}
		}
	})
}
