package eval

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/stats"
)

// sharedPipeline builds one small pipeline reused by all eval tests (the
// pipeline is read-only after construction).
var (
	pipeOnce sync.Once
	pipe     *Pipeline
	pipeErr  error
)

func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		// The DP split must be large relative to the per-count Laplace
		// noise (scale ≈ 22 at ε=1) times maxcost, or the ε=1 model
		// degenerates; see Config.MaxCost. 60k records ≈ the smallest
		// scale at which the paper's shapes are visible.
		cfg := DefaultConfig(60000, 7)
		cfg.K = 20
		cfg.SynthPerVariant = 3000
		cfg.MaxCheckPlausible = 24000
		cfg.Omegas = []OmegaSpec{{11, 11}, {9, 9}, {5, 11}}
		cfg.MaxCost = 32
		pipe, pipeErr = BuildPipeline(cfg)
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

func TestBuildPipelineInvariants(t *testing.T) {
	p := testPipeline(t)
	if p.DT.Len()+p.DP.Len()+p.DS.Len()+p.Test.Len() != 60000 {
		t.Fatal("splits do not partition the data")
	}
	if p.Structure == nil || p.Model == nil || p.MarginalModel == nil {
		t.Fatal("pipeline missing models")
	}
	if p.Budgets.Model.Epsilon > 1.01 {
		t.Fatalf("model budget %v exceeds ε=1", p.Budgets.Model)
	}
	for name, ds := range p.Synths {
		if ds.Len() != 3000 {
			t.Fatalf("variant %s has %d records, want 3000", name, ds.Len())
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("variant %s: %v", name, err)
		}
	}
	if p.Marginals.Len() != 3000 {
		t.Fatalf("marginals dataset has %d records", p.Marginals.Len())
	}
	// Structure learned something: at least a few edges on ACS-like data.
	if p.Structure.Graph.NumEdges() < 3 {
		t.Fatalf("structure has only %d edges:\n%v", p.Structure.Graph.NumEdges(), p.Structure.Graph)
	}
}

func TestBuildPipelineRejectsTinyN(t *testing.T) {
	if _, err := BuildPipeline(DefaultConfig(50, 1)); err == nil {
		t.Fatal("N=50 accepted")
	}
}

func TestRunFig12Shapes(t *testing.T) {
	p := testPipeline(t)
	res, err := RunFig12(context.Background(), p, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	m := len(p.Meta.Attrs)
	if len(res.AccGenerative) != m || len(res.ImprovEps1) != m {
		t.Fatal("result vectors wrong length")
	}
	// The generative model must beat random guessing on average and beat
	// marginals on at least a few attributes (the Fig. 1 shape).
	better := 0
	for a := 0; a < m; a++ {
		if res.AccGenerative[a] < res.AccRandom[a]-0.05 {
			t.Errorf("attribute %s: generative %.3f below random %.3f",
				res.AttrNames[a], res.AccGenerative[a], res.AccRandom[a])
		}
		if res.AccGenerative[a] > res.AccMarginals[a]+0.02 {
			better++
		}
	}
	if better < 3 {
		t.Errorf("generative model beat marginals on only %d attributes", better)
	}
	if !strings.Contains(res.RenderFig1(), "Figure 1") || !strings.Contains(res.RenderFig2(), "RandomForest") {
		t.Fatal("render output malformed")
	}
}

func TestRunFig34Shapes(t *testing.T) {
	p := testPipeline(t)
	res, err := RunFig34(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2+len(p.Cfg.Omegas) {
		t.Fatalf("series count %d", len(res.Series))
	}
	// Reals-vs-reals is the noise floor: its median must be the smallest.
	floor := res.Pairs["Reals"].Median
	for _, s := range res.Series {
		if res.Pairs[s].Median < floor-1e-9 {
			t.Errorf("series %s has pair distance below the reals floor", s)
		}
	}
	// At this 60k scale the ε=1 DP noise dominates the model, so only
	// sanity bounds are asserted here; the paper-shape comparison against
	// marginals runs at full scale in TestPaperShapeFig4 below.
	marg := res.Pairs["Marginals"].Median
	for _, om := range p.Cfg.Omegas {
		syn := res.Pairs[om.Name()].Median
		if syn > 2*marg {
			t.Errorf("pair distance of %s (%.4f) wildly above marginals (%.4f)", om.Name(), syn, marg)
		}
		if syn > 0.5 {
			t.Errorf("pair distance of %s (%.4f) implausibly large", om.Name(), syn)
		}
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Fatal("render output malformed")
	}
}

// TestPaperShapeFig4 verifies the headline Fig. 4 claim — DP synthetics
// preserve pairwise joint distributions far better than marginals — at a
// scale where the ε=1 noise budget leaves signal (the paper used 280k
// records per learning split).
func TestPaperShapeFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale pipeline skipped in -short mode")
	}
	p := shapePipeline(t)
	synTotal, margTotal := strongPairDistances(t, p, "omega in [5-11]")
	if synTotal > 0.7*margTotal {
		t.Errorf("strong-pair distances at scale: synthetics %.4f not clearly below marginals %.4f",
			synTotal, margTotal)
	}
	res, err := RunFig34(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Box shape of Fig. 4: the upper quartile and the worst pair of every
	// synthetic variant sit below the marginals' (synthetics track the
	// dependent pairs, where marginals break). The median lives among the
	// near-independent pairs, where the paper itself notes marginals can
	// win; we require parity there.
	marg := res.Pairs["Marginals"]
	for _, om := range p.Cfg.Omegas {
		syn := res.Pairs[om.Name()]
		if syn.Q3 > marg.Q3 {
			t.Errorf("pair distance q3 of %s (%.4f) above marginals (%.4f)", om.Name(), syn.Q3, marg.Q3)
		}
		if syn.Max > marg.Max {
			t.Errorf("pair distance max of %s (%.4f) above marginals (%.4f)", om.Name(), syn.Max, marg.Max)
		}
		if syn.Median > marg.Median+0.01 {
			t.Errorf("pair distance median of %s (%.4f) far above marginals (%.4f)",
				om.Name(), syn.Median, marg.Median)
		}
	}
}

var (
	shapeOnce sync.Once
	shapePipe *Pipeline
	shapeErr  error
)

// shapePipeline is the paper-scale pipeline used by the shape tests.
func shapePipeline(t *testing.T) *Pipeline {
	t.Helper()
	shapeOnce.Do(func() {
		cfg := DefaultConfig(250000, 11)
		cfg.SynthPerVariant = 20000
		cfg.Omegas = []OmegaSpec{{11, 11}, {9, 9}, {5, 11}}
		shapePipe, shapeErr = BuildPipeline(cfg)
	})
	if shapeErr != nil {
		t.Fatal(shapeErr)
	}
	return shapePipe
}

// strongPairDistances sums, over the 8 most correlated attribute pairs of
// the reference reals, the TVD of the named synthetic variant and of the
// marginals against the reference.
func strongPairDistances(t *testing.T, p *Pipeline, variant string) (synSum, margSum float64) {
	t.Helper()
	half := p.Test.Len() / 2
	sh := p.Test.Shuffled(rng.New(p.Cfg.Seed + 0x34))
	parts, err := sh.Split(half, half)
	if err != nil {
		t.Fatal(err)
	}
	ref := parts[0]
	m := ref.NumAttrs()
	type pairSU struct {
		i, j int
		su   float64
	}
	var pairs []pairSU
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			su := stats.SymmetricalUncertaintyColumns(
				ref.Column(i), ref.Meta.Attrs[i].Card(),
				ref.Column(j), ref.Meta.Attrs[j].Card())
			pairs = append(pairs, pairSU{i, j, su})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].su > pairs[b].su })
	syn := p.Synths[variant]
	dist := func(ds *dataset.Dataset, i, j int) float64 {
		ci, cj := ref.Meta.Attrs[i].Card(), ref.Meta.Attrs[j].Card()
		ja := stats.FromColumns(ref.Column(i), ci, ref.Column(j), cj)
		jb := stats.FromColumns(ds.Column(i), ci, ds.Column(j), cj)
		return stats.TotalVariation(ja.Flatten(), jb.Flatten())
	}
	for _, pr := range pairs[:8] {
		synSum += dist(syn, pr.i, pr.j)
		margSum += dist(p.Marginals, pr.i, pr.j)
	}
	return synSum, margSum
}

func TestRunFig5Shapes(t *testing.T) {
	p := testPipeline(t)
	res, err := RunFig5(context.Background(), p, []int{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SynthTimes) != 2 || len(res.Released) != 2 {
		t.Fatal("result vectors wrong length")
	}
	if res.SynthTimes[0] <= 0 {
		t.Fatal("synthesis time not measured")
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Fatal("render output malformed")
	}
}

func TestRunFig6Shapes(t *testing.T) {
	p := testPipeline(t)
	ks := []int{5, 20, 60}
	res, err := RunFig6(context.Background(), p, ks, []OmegaSpec{{9, 9}, {5, 11}}, 150)
	if err != nil {
		t.Fatal(err)
	}
	for name, rates := range res.Rates {
		if len(rates) != len(ks) {
			t.Fatalf("series %s has %d rates", name, len(rates))
		}
		// Pass rate must be non-increasing in k (allowing MC slack).
		for i := 1; i < len(rates); i++ {
			if rates[i] > rates[i-1]+0.08 {
				t.Errorf("series %s: pass rate rose from %.3f to %.3f as k grew",
					name, rates[i-1], rates[i])
			}
		}
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Fatal("render output malformed")
	}
}

// TestPipelineSharesScanIndex pins the one-build-per-pipeline contract:
// every ω variant's mechanism carries the same scan index, built for the
// pipeline's seeds under the model's σ, and generation keeps using it
// rather than building its own.
func TestPipelineSharesScanIndex(t *testing.T) {
	p := testPipeline(t)
	var first *core.ScanTable
	for _, om := range []OmegaSpec{{9, 9}, {5, 11}, {7, 7}} {
		mech, err := p.Mechanism(om)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.GenerateCtx(context.Background(), mech, core.GenConfig{Candidates: 20, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if mech.Scan == nil {
			t.Fatalf("%s: mechanism has no scan index", om.Name())
		}
		if first == nil {
			first = mech.Scan
		} else if mech.Scan != first {
			t.Fatalf("%s: mechanism got its own scan index, want the pipeline's", om.Name())
		}
	}
}

func TestRunFig6RejectsOversizedK(t *testing.T) {
	p := testPipeline(t)
	if _, err := RunFig6(context.Background(), p, []int{p.DS.Len() + 1}, []OmegaSpec{{9, 9}}, 10); err == nil {
		t.Fatal("k > |DS| accepted")
	}
}

func TestRunTable2(t *testing.T) {
	st, err := RunTable2(context.Background(), 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 4000 || st.Clean == 0 || st.Clean == st.Total {
		t.Fatalf("implausible cleaning stats: %+v", st)
	}
}

func TestRunTable3Shape(t *testing.T) {
	p := testPipeline(t)
	res, err := RunTable3(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2+len(p.Cfg.Omegas) {
		t.Fatalf("row count %d", len(res.Rows))
	}
	if res.Rows[0].Name != "Reals" {
		t.Fatal("first row should be Reals")
	}
	// Reals-trained classifiers agree with themselves perfectly.
	if res.Rows[0].AgrRF != 1 || res.Rows[0].AgrTree != 1 {
		t.Fatalf("reals row agreement not 1: %+v", res.Rows[0])
	}
	// Ordering shape: reals ≥ synthetics ≥ marginals on RF accuracy
	// (allowing small-sample slack).
	var margRF, bestSynRF float64
	for _, row := range res.Rows {
		switch {
		case row.Name == "Marginals":
			margRF = row.AccRF
		case row.Name != "Reals" && row.AccRF > bestSynRF:
			bestSynRF = row.AccRF
		}
	}
	if bestSynRF < margRF-0.05 {
		t.Errorf("best synthetic RF %.3f clearly below marginals %.3f", bestSynRF, margRF)
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Fatal("render output malformed")
	}
}

func TestRunTable4Shape(t *testing.T) {
	p := testPipeline(t)
	res, err := RunTable4(context.Background(), p, []float64{1e-3, 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4+len(p.Cfg.Omegas) {
		t.Fatalf("row count %d", len(res.Rows))
	}
	if res.Rows[0].Name != "Non Private" {
		t.Fatal("first row should be Non Private")
	}
	np := res.Rows[0]
	if np.AccLR < 0.6 || np.AccSVM < 0.6 {
		t.Fatalf("non-private baselines too weak: %+v", np)
	}
	if !strings.Contains(res.Render(), "Table 4") {
		t.Fatal("render output malformed")
	}
}

func TestRunTable5Shape(t *testing.T) {
	p := testPipeline(t)
	res, err := RunTable5(context.Background(), p, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2+len(p.Cfg.Omegas) {
		t.Fatalf("row count %d", len(res.Rows))
	}
	var realsRF, margRF float64
	for _, row := range res.Rows {
		switch row.Name {
		case "Reals":
			realsRF = row.AccRF
		case "Marginals":
			margRF = row.AccRF
		}
	}
	// Blind baseline ~50%; marginals must be clearly distinguishable.
	if realsRF < 0.35 || realsRF > 0.65 {
		t.Errorf("reals-vs-reals distinguishing accuracy %.3f far from 50%%", realsRF)
	}
	if margRF < realsRF+0.05 {
		t.Errorf("marginals (%.3f) not more distinguishable than reals (%.3f)", margRF, realsRF)
	}
	if !strings.Contains(res.Render(), "Table 5") {
		t.Fatal("render output malformed")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := RenderTable([]string{"A", "LongHeader"}, [][]string{{"xx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "--") {
		t.Fatal("missing separator row")
	}
}
