package eval

import (
	"context"
	"fmt"

	"repro/internal/bayesnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/stats"
)

// This file holds ablation drivers for the design choices DESIGN.md calls
// out: the σ-order selection, the maxcost complexity cap (eq. 6), and the
// parameter mode (MAP vs posterior sampling). Each returns a small table
// that cmd/experiments and the ablation benchmarks render.

// SigmaOrderAblation compares the pass rate of the privacy test under the
// cardinality-preferring re-sampling order (this implementation's choice)
// against a plain index-ordered σ. Both are valid topological orders per
// §3.2; the ablation quantifies why the choice matters: high-cardinality
// attributes early in σ starve the plausible-seed count.
type SigmaOrderAblation struct {
	Omega                OmegaSpec
	K                    int
	PassRateCardinality  float64
	PassRateIndexOrdered float64
}

// Render formats the ablation.
func (a *SigmaOrderAblation) Render() string {
	return fmt.Sprintf(
		"Ablation: sigma order (%s, k=%d, gamma=2)\n"+
			"cardinality-preferring order: pass rate %.1f%%\n"+
			"index-ordered sigma:          pass rate %.1f%%\n",
		a.Omega.Name(), a.K, 100*a.PassRateCardinality, 100*a.PassRateIndexOrdered)
}

// RunSigmaOrderAblation measures both pass rates on the pipeline's model.
// ctx is honoured inside the generation loops.
func RunSigmaOrderAblation(ctx context.Context, p *Pipeline, om OmegaSpec, k, candidates int) (*SigmaOrderAblation, error) {
	if candidates <= 0 {
		candidates = 300
	}
	rate := func(st *bayesnet.Structure) (float64, error) {
		model, err := bayesnet.LearnModel(p.DP, p.Bkt, st, bayesnet.ModelConfig{Alpha: 1})
		if err != nil {
			return 0, err
		}
		syn, err := core.NewSeedSynthesizer(model, om.Lo, om.Hi)
		if err != nil {
			return 0, err
		}
		mech, err := core.NewMechanism(syn, p.DS, core.TestConfig{
			K: k, Gamma: 2, MaxPlausible: k, MaxCheckPlausible: p.Cfg.MaxCheckPlausible,
		})
		if err != nil {
			return 0, err
		}
		_, stats, err := core.GenerateCtx(ctx, p.withScan(mech), core.GenConfig{
			Candidates: candidates, Workers: p.Cfg.Workers, Seed: p.Cfg.Seed + 0xab1,
		})
		if err != nil {
			return 0, err
		}
		return stats.PassRate(), nil
	}

	cardRate, err := rate(p.Structure)
	if err != nil {
		return nil, err
	}
	// Same graph, index-preferring topological order.
	idxOrder, err := p.Structure.Graph.TopologicalOrderPreferring(nil)
	if err != nil {
		return nil, err
	}
	idxStruct := &bayesnet.Structure{
		Graph:  p.Structure.Graph,
		Order:  idxOrder,
		Scores: p.Structure.Scores,
	}
	idxRate, err := rate(idxStruct)
	if err != nil {
		return nil, err
	}
	return &SigmaOrderAblation{
		Omega:                om,
		K:                    k,
		PassRateCardinality:  cardRate,
		PassRateIndexOrdered: idxRate,
	}, nil
}

// MaxCostAblation sweeps the eq. (6) complexity cap and reports model
// quality (mean strong-pair TVD of direct model samples against reals) at
// each setting, with and without the ε=1 DP noise. It exhibits the
// bias/variance trade-off eq. (6) exists to control: high caps overfit the
// (noisy) conditionals, low caps underfit the dependence structure.
type MaxCostAblation struct {
	MaxCosts []float64
	// PairTVDPlain[i] / PairTVDDP[i] is the mean pairwise TVD of 5000
	// model samples vs held-out reals at MaxCosts[i].
	PairTVDPlain []float64
	PairTVDDP    []float64
}

// Render formats the ablation.
func (a *MaxCostAblation) Render() string {
	rows := make([][]string, len(a.MaxCosts))
	for i := range a.MaxCosts {
		rows[i] = []string{
			fmt.Sprintf("%.0f", a.MaxCosts[i]),
			fmt.Sprintf("%.4f", a.PairTVDPlain[i]),
			fmt.Sprintf("%.4f", a.PairTVDDP[i]),
		}
	}
	return "Ablation: maxcost (eq. 6) vs mean pairwise TVD of model samples\n" +
		RenderTable([]string{"maxcost", "un-noised", "eps=1"}, rows)
}

// RunMaxCostAblation learns a structure+model per cap and measures sample
// fidelity. ctx is honoured between cap settings.
func RunMaxCostAblation(ctx context.Context, p *Pipeline, maxCosts []float64, samples int) (*MaxCostAblation, error) {
	if len(maxCosts) == 0 {
		maxCosts = []float64{4, 32, 256, 2048}
	}
	if samples <= 0 {
		samples = 5000
	}
	res := &MaxCostAblation{MaxCosts: maxCosts}
	for _, mc := range maxCosts {
		for _, dp := range []bool{false, true} {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
			scfg := bayesnet.StructureConfig{MaxCost: mc, MinCorr: 0.01}
			mcfg := bayesnet.ModelConfig{Alpha: 1, NoiseKey: fmt.Sprintf("ablate-%v-%v", mc, dp)}
			if dp {
				scfg.DP, scfg.EpsH, scfg.EpsN = true, p.Budgets.EpsH, p.Budgets.EpsN
				scfg.Rng = rng.NewHashed("ablate-structure", fmt.Sprint(mc))
				mcfg.DP, mcfg.EpsP = true, p.Budgets.EpsP
			}
			st, err := bayesnet.LearnStructure(p.DT, p.Bkt, scfg)
			if err != nil {
				return nil, err
			}
			model, err := bayesnet.LearnModel(p.DP, p.Bkt, st, mcfg)
			if err != nil {
				return nil, err
			}
			r := rng.New(p.Cfg.Seed + 0xab2)
			ds := dataset.New(p.Meta)
			for i := 0; i < samples; i++ {
				ds.Append(model.SampleRecord(r))
			}
			mean := stats.Mean(pairDistances(p.Test.Head(samples*2), ds))
			if dp {
				res.PairTVDDP = append(res.PairTVDDP, mean)
			} else {
				res.PairTVDPlain = append(res.PairTVDPlain, mean)
			}
		}
	}
	return res, nil
}

// ParamModeAblation compares MAP parameter estimates (eq. 13) against
// posterior-sampled parameters (eq. 12) — the paper samples "to increase
// the variety of data samples" — on sample fidelity and on the number of
// distinct records generated.
type ParamModeAblation struct {
	PairTVDMAP, PairTVDSampled       float64
	UniqueFracMAP, UniqueFracSampled float64
}

// Render formats the ablation.
func (a *ParamModeAblation) Render() string {
	return fmt.Sprintf(
		"Ablation: parameter mode (eq. 13 MAP vs eq. 12 posterior sample)\n"+
			"MAP estimate:      mean pair TVD %.4f, unique fraction %.3f\n"+
			"posterior sample:  mean pair TVD %.4f, unique fraction %.3f\n",
		a.PairTVDMAP, a.UniqueFracMAP, a.PairTVDSampled, a.UniqueFracSampled)
}

// RunParamModeAblation learns both model variants over the pipeline's
// structure and samples each. ctx is honoured between variants.
func RunParamModeAblation(ctx context.Context, p *Pipeline, samples int) (*ParamModeAblation, error) {
	if samples <= 0 {
		samples = 5000
	}
	res := &ParamModeAblation{}
	for _, mode := range []bayesnet.ParamMode{bayesnet.MAPEstimate, bayesnet.PosteriorSample} {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		model, err := bayesnet.LearnModel(p.DP, p.Bkt, p.Structure, bayesnet.ModelConfig{
			Alpha: 1, Mode: mode, NoiseKey: fmt.Sprintf("ablate-mode-%d", mode),
		})
		if err != nil {
			return nil, err
		}
		r := rng.New(p.Cfg.Seed + 0xab3)
		ds := dataset.New(p.Meta)
		for i := 0; i < samples; i++ {
			ds.Append(model.SampleRecord(r))
		}
		tvd := stats.Mean(pairDistances(p.Test.Head(samples*2), ds))
		uniq := float64(ds.UniqueCount()) / float64(ds.Len())
		if mode == bayesnet.MAPEstimate {
			res.PairTVDMAP, res.UniqueFracMAP = tvd, uniq
		} else {
			res.PairTVDSampled, res.UniqueFracSampled = tvd, uniq
		}
	}
	return res, nil
}
