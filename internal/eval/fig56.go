package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// PerfResult holds the Figure 5 timings: cumulative wall-clock time to
// produce increasing numbers of candidate synthetics (the generator outputs
// all candidates regardless of the test outcome, §6.5), plus the one-off
// model learning time.
type PerfResult struct {
	ModelLearn time.Duration
	Counts     []int
	SynthTimes []time.Duration
	Released   []int
}

// RunFig5 measures generation throughput with the paper's Fig. 5 parameters
// (ω = 9, k = 50, γ = 4; max_plausible and max_check_plausible from the
// pipeline config) at each requested candidate count. ctx stops the
// generation loops at the next candidate boundary.
func RunFig5(ctx context.Context, p *Pipeline, counts []int) (*PerfResult, error) {
	if len(counts) == 0 {
		counts = []int{2500, 5000, 10000, 20000}
	}
	mech, err := p.Mechanism(OmegaSpec{9, 9})
	if err != nil {
		return nil, err
	}
	res := &PerfResult{ModelLearn: p.ModelLearnTime, Counts: counts}
	for ci, n := range counts {
		_, stats, err := core.GenerateCtx(ctx, mech, core.GenConfig{
			Candidates: n,
			Workers:    p.Cfg.Workers,
			Seed:       p.Cfg.Seed + uint64(ci),
		})
		if err != nil {
			return nil, err
		}
		res.SynthTimes = append(res.SynthTimes, stats.Elapsed)
		res.Released = append(res.Released, stats.Released)
	}
	return res, nil
}

// PassRateResult holds the Figure 6 series: the fraction of candidate
// synthetics passing the (deterministic) privacy test, per ω variant and
// plausible-deniability threshold k, at γ = 2.
type PassRateResult struct {
	Ks     []int
	Omegas []OmegaSpec
	// Rates[omega.Name()][i] is the pass rate at Ks[i].
	Rates map[string][]float64
}

// RunFig6 reproduces Figure 6: γ = 2, k swept, one candidate batch per
// (ω, k) combination. ctx is honoured between combinations and inside the
// generation loops.
func RunFig6(ctx context.Context, p *Pipeline, ks []int, omegas []OmegaSpec, candidates int) (*PassRateResult, error) {
	if len(ks) == 0 {
		ks = []int{10, 25, 50, 100, 150, 200, 250}
	}
	if len(omegas) == 0 {
		omegas = []OmegaSpec{{7, 7}, {8, 8}, {9, 9}, {10, 10}, {5, 11}}
	}
	if candidates <= 0 {
		candidates = 400
	}
	res := &PassRateResult{Ks: ks, Omegas: omegas, Rates: map[string][]float64{}}
	for _, om := range omegas {
		syn, err := core.NewSeedSynthesizer(p.Model, om.Lo, om.Hi)
		if err != nil {
			return nil, err
		}
		rates := make([]float64, len(ks))
		for ki, k := range ks {
			if k > p.DS.Len() {
				return nil, fmt.Errorf("eval: k=%d exceeds seed dataset size %d", k, p.DS.Len())
			}
			mech, err := core.NewMechanism(syn, p.DS, core.TestConfig{
				K:                 k,
				Gamma:             2,
				MaxPlausible:      k, // counting past k is wasted work here
				MaxCheckPlausible: p.Cfg.MaxCheckPlausible,
			})
			if err != nil {
				return nil, err
			}
			_, stats, err := core.GenerateCtx(ctx, p.withScan(mech), core.GenConfig{
				Candidates: candidates,
				Workers:    p.Cfg.Workers,
				Seed:       p.Cfg.Seed ^ uint64(k)<<16 ^ uint64(om.Lo)<<8 ^ uint64(om.Hi),
			})
			if err != nil {
				return nil, err
			}
			rates[ki] = stats.PassRate()
		}
		res.Rates[om.Name()] = rates
	}
	return res, nil
}
