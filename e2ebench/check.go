package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// outputFields names the RunStats.Extra fields that are a kernel's
// answer rather than its work. They must equal the committed reference
// at the default data seed, at any thread count. phmm, spoa, abea and
// grm expose no answer in RunStats, so the suite workloads cannot
// catch a wrong result from them (see README.md).
var outputFields = map[string][]string{
	"fmi":        {"smems"},
	"bsw":        {"score"},
	"dbg":        {"haplotypes"},
	"chain":      {"chains"},
	"nn-base":    {"bases"},
	"pileup":     {"depth"},
	"nn-variant": {"calls"},
	"kmer-cnt":   {"kmers", "distinct"},
}

// volatileFields are work counters that an optimisation, or the
// interleaving of threads, may legitimately change. Every other Extra
// field must repeat exactly from pass to pass at the same thread count.
var volatileFields = map[string]bool{
	"probes":        true,
	"cycle_retries": true,
	"fallbacks":     true,
	"occ_lookups":   true,
}

// reference is the committed expected output of one workload at its
// default data seed: kernel output fields, and scenario digests as
// 16-digit hex.
type reference struct {
	Kernels   map[string]map[string]float64 `json:"kernels,omitempty"`
	Scenarios map[string]string             `json:"scenarios,omitempty"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReferences parses the committed references, keyed by workload.
func loadReferences() (map[string]*reference, error) {
	refs := map[string]*reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("parse reference.json: %w", err)
	}
	return refs, nil
}

// checker validates every operation's output. At the default data
// seed it compares against the committed reference; at any seed it
// requires each pass to reproduce the first one.
type checker struct {
	ref *reference // nil when the data seed is not the default
	// inject names a kernel or scenario whose observed output is
	// perturbed before checking, to prove a wrong answer is counted.
	inject string
	// first holds each kernel's first full run and each scenario's
	// first digest, which later runs must repeat.
	first       map[string]map[string]float64
	firstDigest map[string]string
}

func newChecker(ref *reference, inject string) *checker {
	return &checker{ref: ref, inject: inject, first: map[string]map[string]float64{}, firstDigest: map[string]string{}}
}

// kernel checks one kernel run's Extra fields. full is false for runs
// at another thread count than the pass width (the t1 baseline), where
// only the output fields are compared.
func (c *checker) kernel(name string, extra map[string]float64, full bool) error {
	got := make(map[string]float64, len(extra))
	for k, v := range extra {
		got[k] = v
	}
	if c.inject == name {
		for _, f := range outputFields[name] {
			got[f]++
		}
	}
	outs := map[string]float64{}
	for _, f := range outputFields[name] {
		v, ok := got[f]
		if !ok {
			return fmt.Errorf("%s: output field %q missing", name, f)
		}
		outs[f] = v
	}
	if c.ref != nil {
		want := c.ref.Kernels[name]
		for f, v := range outs {
			w, ok := want[f]
			if !ok {
				return fmt.Errorf("%s: no reference for %q", name, f)
			}
			if v != w {
				return fmt.Errorf("%s: %s = %v, reference %v", name, f, v, w)
			}
		}
	}
	prev, seen := c.first[name]
	if !seen {
		if full {
			c.first[name] = got
		}
		return nil
	}
	for _, f := range fieldsToCompare(prev, full, name) {
		if got[f] != prev[f] {
			return fmt.Errorf("%s: %s = %v, first pass %v", name, f, got[f], prev[f])
		}
	}
	return nil
}

// fieldsToCompare lists, sorted, the fields a later run must repeat.
func fieldsToCompare(first map[string]float64, full bool, name string) []string {
	var fs []string
	if !full {
		fs = append(fs, outputFields[name]...)
	} else {
		for f := range first {
			if !volatileFields[f] {
				fs = append(fs, f)
			}
		}
	}
	sort.Strings(fs)
	return fs
}

// scenario checks one scenario run's digest.
func (c *checker) scenario(name string, digest uint64) error {
	if c.inject == name {
		digest ^= 1
	}
	hex := fmt.Sprintf("%016x", digest)
	if c.ref != nil {
		want, ok := c.ref.Scenarios[name]
		if !ok {
			return fmt.Errorf("%s: no reference digest", name)
		}
		if hex != want {
			return fmt.Errorf("%s: digest %s, reference %s", name, hex, want)
		}
	}
	first, seen := c.firstDigest[name]
	if !seen {
		c.firstDigest[name] = hex
		return nil
	}
	if hex != first {
		return fmt.Errorf("%s: digest %s, first pass %s", name, hex, first)
	}
	return nil
}
