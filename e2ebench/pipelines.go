package main

import (
	"context"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/scratch"
)

// pipelineScale sets each scenario's size in the pipelines workload:
// variantcalling at gbench-bench's scale, metagenomics at its
// registered default, methylation with 32 molecules.
var pipelineScale = []struct {
	name   string
	params scenario.Params
}{
	{"variantcalling", scenario.Params{"ref_len": 8_000, "coverage": 20, "min_recall": 0.2}},
	{"metagenomics", scenario.Params{}},
	{"methylation", scenario.Params{"molecules": 32}},
}

// scenarioUnit drives one registered scenario through its public
// Build and RunFused, with a scratch pool that lives as long as the
// workload.
type scenarioUnit struct {
	def    *scenario.Def
	params scenario.Params
	pipe   *scenario.Pipeline
	pool   *scratch.Pool
	check  *checker
}

// pipelineUnits instantiates the pipelines workload. A nonzero
// dataSeed replaces each scenario's registered simulator seeds.
func pipelineUnits(dataSeed int64, check *checker) ([]unit, error) {
	var us []unit
	for _, sc := range pipelineScale {
		def := scenario.Get(sc.name)
		if def == nil {
			return nil, fmt.Errorf("scenario %q is not registered", sc.name)
		}
		p := def.Params.Clone()
		for k, v := range sc.params {
			p[k] = v
		}
		if dataSeed != 0 {
			p["seed"] = float64(dataSeed)
			if _, ok := p["read_seed"]; ok {
				p["read_seed"] = float64(dataSeed + 1)
			}
		}
		us = append(us, &scenarioUnit{def: def, params: p, pool: scratch.NewPool(), check: check})
	}
	return us, nil
}

func (s *scenarioUnit) name() string { return s.def.Name }

func (s *scenarioUnit) setup() error {
	pipe, err := s.def.Build(s.params)
	if err != nil {
		return fmt.Errorf("%s: build: %w", s.def.Name, err)
	}
	s.pipe = pipe
	return nil
}

func (s *scenarioUnit) release() { s.pipe = nil }

func (s *scenarioUnit) options(workers int) scenario.Options {
	return scenario.Options{Workers: workers, Pool: s.pool}
}

// run executes the scenario once on the fused executor with every
// stage capped at workers, and checks its digest (RunFused has
// already applied the scenario's Accept check).
func (s *scenarioUnit) run(ctx context.Context, workers int, _ bool) (map[string]float64, error) {
	res, err := scenario.RunFused(ctx, s.def.Name, s.pipe, s.options(workers))
	if err != nil {
		return nil, fmt.Errorf("%s: fused: %w", s.def.Name, err)
	}
	if err := s.check.scenario(s.def.Name, res.Digest); err != nil {
		return nil, err
	}
	layer := map[string]float64{"overlap": res.Overlap}
	for _, st := range res.Stages {
		layer[st.Name+".occupancy"] = st.Occupancy
		layer[st.Name+".queue_peak"] = float64(st.QueuePeak)
	}
	return layer, nil
}

// staged runs the differential twin, whose digest must match the fused
// one, and returns each stage's self time: with stages run back to
// back, a stage's active window is time no other stage covers.
// (Fused StageStats.BusyNs includes time blocked in emit, so it
// cannot serve as self time.)
func (s *scenarioUnit) staged(ctx context.Context, workers int) (map[string]float64, error) {
	res, err := scenario.RunStaged(ctx, s.def.Name, s.pipe, s.options(workers))
	if err != nil {
		return nil, fmt.Errorf("%s: staged: %w", s.def.Name, err)
	}
	if err := s.check.scenario(s.def.Name, res.Digest); err != nil {
		return nil, fmt.Errorf("staged twin: %w", err)
	}
	layer := map[string]float64{}
	for _, st := range res.Stages {
		layer[st.Name+".self_s"] = float64(st.WallNs) / 1e9
	}
	return layer, nil
}

// scenarioStages lists every pipelines scenario's stage names in DAG
// order, for the static per-layer metric list.
func scenarioStages() map[string][]string {
	out := map[string][]string{}
	for _, sc := range pipelineScale {
		if def := scenario.Get(sc.name); def != nil {
			out[sc.name] = def.Stages[1:] // Stages[0] is the source
		}
	}
	return out
}
