package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// referenceGenerate is the pre-batching pipeline spelled out: one explicit
// ReseedStream(seed, i) per candidate, the allocating Once path, releases
// in candidate index order. The batched kernel is pinned against this
// oracle, not against itself.
func referenceGenerate(t *testing.T, mech *Mechanism, candidates int, seed uint64) ([]dataset.Record, GenStats) {
	t.Helper()
	var stats GenStats
	var rows []dataset.Record
	r := rng.New(0)
	for i := 0; i < candidates; i++ {
		r.ReseedStream(seed, uint64(i))
		y, res, ok := mech.Once(r)
		stats.Candidates++
		stats.CheckedTotal += int64(res.Checked)
		if res.Checked > 0 {
			stats.Scans.Fallback++ // the reference evaluates every visited record
		}
		if res.SeedProb <= 0 {
			stats.SeedRejected++
		}
		if ok {
			rows = append(rows, y)
			stats.Released++
		}
	}
	return rows, stats
}

// batchMechs builds the deterministic and randomized mechanisms the
// batch-identity matrix runs over, both on a frozen model so the batched
// hot path (scan table, fused sampling, arena) is what executes.
func batchMechs(t *testing.T) map[string]*Mechanism {
	t.Helper()
	model := benchModel(t, 21)
	if err := model.Freeze(0); err != nil {
		t.Fatal(err)
	}
	syn, err := NewSeedSynthesizer(model, 9, 11)
	if err != nil {
		t.Fatal(err)
	}
	// ω up to m puts agreement length 0 in range, so a wide γ-partition can
	// make every record plausible: the constant shape.
	wide, err := NewSeedSynthesizer(model, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 22)
	// The uncapped k=20 scan over 2,400 seeds is the configuration whose
	// small plausible sets take the enumerate shape; the capped ones walk.
	many := tinySeeds(t, model, 2400, 23)
	out := make(map[string]*Mechanism)
	for name, c := range map[string]struct {
		syn   *SeedSynthesizer
		seeds *dataset.Dataset
		test  TestConfig
	}{
		"deterministic": {syn, seeds, TestConfig{K: 5, Gamma: 3, MaxPlausible: 10, MaxCheckPlausible: 64}},
		"randomized":    {syn, seeds, TestConfig{K: 5, Gamma: 3, Randomized: true, Eps0: 0.8, MaxPlausible: 12}},
		"enumerate":     {syn, many, TestConfig{K: 20, Gamma: 3, Randomized: true, Eps0: 0.5}},
		"wide":          {wide, seeds, TestConfig{K: 5, Gamma: 40, MaxPlausible: 10, MaxCheckPlausible: 64}},
	} {
		mech, err := NewMechanism(c.syn, c.seeds, c.test)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = mech
	}
	return out
}

// TestBatchedGenerateByteIdentical is the batching half of the determinism
// suite: for every worker count × batch size combination, the batched
// kernel must release the byte-identical record sequence and the identical
// statistics of the explicit per-candidate reference loop.
func TestBatchedGenerateByteIdentical(t *testing.T) {
	const candidates = 800
	const seed = 99
	var all ScanShapes
	for name, mech := range batchMechs(t) {
		t.Run(name, func(t *testing.T) {
			wantRows, wantStats := referenceGenerate(t, mech, candidates, seed)
			if wantStats.Released == 0 {
				t.Fatal("reference released nothing; test would be vacuous")
			}
			var wantScans ScanShapes // the first batched run's, pinned for the rest
			for _, workers := range []int{1, 3, 8} {
				for _, batch := range []int{1, 7, 256, candidates} {
					out, stats, err := GenerateCtx(context.Background(), mech, GenConfig{
						Candidates: candidates, Workers: workers, Seed: seed, BatchSize: batch,
					})
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("workers=%d batch=%d", workers, batch)
					rows := out.Rows()
					if len(rows) != len(wantRows) {
						t.Fatalf("%s: released %d records, want %d", tag, len(rows), len(wantRows))
					}
					for i := range rows {
						for j := range rows[i] {
							if rows[i][j] != wantRows[i][j] {
								t.Fatalf("%s: record %d attr %d = %d, want %d",
									tag, i, j, rows[i][j], wantRows[i][j])
							}
						}
					}
					if stats.Released != wantStats.Released || stats.Candidates != wantStats.Candidates ||
						stats.SeedRejected != wantStats.SeedRejected || stats.CheckedTotal != wantStats.CheckedTotal {
						t.Fatalf("%s: stats %+v, want %+v", tag, stats, wantStats)
					}
					sc := stats.Scans
					if sc.Constant+sc.Enumerate+sc.Walk+sc.Fallback != wantStats.Scans.Fallback {
						t.Fatalf("%s: scan shapes %+v do not add up to the %d scanned candidates", tag, sc, wantStats.Scans.Fallback)
					}
					if wantScans == (ScanShapes{}) {
						wantScans = sc
					} else if sc != wantScans {
						t.Fatalf("%s: scan shapes %+v, want %+v", tag, sc, wantScans)
					}
				}
			}
			all.Add(wantScans)
		})
	}
	// The counters must show every indexed shape at work somewhere in the
	// matrix, or the identity above covered fewer shapes than it claims.
	if all.Constant == 0 || all.Enumerate == 0 || all.Walk == 0 {
		t.Errorf("scan shapes over all mechanisms %+v: some indexed shape never ran", all)
	}
}

// TestFastTestMatchesRunTest pins the fast privacy-test kernel, shape by
// shape, against the reference RunTest path on identical RNG streams: the
// indexed scan (constant, enumerate and walk shapes), the mask-walk
// fallback (index removed), and the gcd-walk fallback (no scan table at
// all) must produce identical results and identical RNG consumption for
// every candidate — and every shape must actually run.
func TestFastTestMatchesRunTest(t *testing.T) {
	var shapes [numScanShapes]int
	for name, mech := range batchMechs(t) {
		t.Run(name, func(t *testing.T) {
			hs := mech.Synth.(hotSynthesizer)
			full := mech.ensureScan()
			if full == nil || full.perm == nil {
				t.Fatal("expected an indexed scan table for the seed synthesizer")
			}
			noIndex := *full
			noIndex.perm, noIndex.inv = nil, nil
			pre, err := newTestPre(mech)
			if err != nil {
				t.Fatal(err)
			}
			tables := map[string]*ScanTable{"index": full, "no index": &noIndex, "none": nil}
			for tname, st := range tables {
				sc := newGenScratch(len(mech.Seeds.Meta.Attrs))
				rFast, rRef := rng.New(0), rng.New(0)
				for i := uint64(0); i < 500; i++ {
					rFast.ReseedStream(7, i)
					rRef.ReseedStream(7, i)
					y, res, shape := mech.onceFast(hs, sc, st, &pre, rFast)
					wantY, wantRes, wantOK := mech.Once(rRef)
					shapes[shape]++
					if res.Pass != wantOK || res != wantRes {
						t.Fatalf("%s candidate %d: result %+v, want %+v (ok=%v)",
							tname, i, res, wantRes, wantOK)
					}
					if st == full && shape == shapeFallback && sc.ps.ivOK {
						t.Fatalf("%s candidate %d: indexed table fell back to the per-record path", tname, i)
					}
					for j := range wantY {
						if y[j] != wantY[j] {
							t.Fatalf("%s candidate %d: attr %d = %d, want %d", tname, i, j, y[j], wantY[j])
						}
					}
					// Both paths must have consumed the same stream.
					if g, w := rFast.Uint64(), rRef.Uint64(); g != w {
						t.Fatalf("%s candidate %d: RNG streams diverged after the test", tname, i)
					}
				}
			}
		})
	}
	for shape, name := range map[scanShape]string{
		shapeConstant: "constant", shapeEnumerate: "enumerate", shapeWalk: "walk", shapeFallback: "fallback",
	} {
		if shapes[shape] == 0 {
			t.Errorf("no candidate took the %s shape (counts %v); the suite would not cover it", name, shapes)
		}
	}
	t.Logf("scan shapes (none, constant, enumerate, walk, fallback): %v", shapes)
}

// TestForeignScanTableReplaced pins the guard on a caller-provided scan
// index: one built for another σ order or other seeds is never applied —
// the mechanism builds its own and releases exactly what the reference
// path releases.
func TestForeignScanTableReplaced(t *testing.T) {
	const candidates, seed = 300, 5
	mech := batchMechs(t)["enumerate"]
	order := slices.Clone(mech.Synth.(*SeedSynthesizer).scanOrder())
	slices.Reverse(order)
	other := batchMechs(t)["deterministic"].Seeds
	for name, foreign := range map[string]*ScanTable{
		"other order": NewScanTable(mech.Seeds, order),
		"other seeds": ScanTableFor(mech.Synth, other),
	} {
		m, err := NewMechanism(mech.Synth, mech.Seeds, mech.Test)
		if err != nil {
			t.Fatal(err)
		}
		m.Scan = foreign
		out, stats, err := GenerateCtx(context.Background(), m, GenConfig{Candidates: candidates, Workers: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if m.Scan == foreign {
			t.Fatalf("%s: the foreign scan index was kept", name)
		}
		wantRows, wantStats := referenceGenerate(t, m, candidates, seed)
		if stats.Released != wantStats.Released || stats.CheckedTotal != wantStats.CheckedTotal || out.Len() != len(wantRows) {
			t.Fatalf("%s: stats %+v, want %+v", name, stats, wantStats)
		}
	}
}

// TestBatchedGenerateCancelled pins the per-batch cancellation poll: a
// pre-cancelled context must yield zero candidates — workers check before
// claiming their first batch.
func TestBatchedGenerateCancelled(t *testing.T) {
	mech := batchMechs(t)["deterministic"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, stats, err := GenerateCtx(ctx, mech, GenConfig{Candidates: 10000, Workers: 4, Seed: 3})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Candidates != 0 || out.Len() != 0 {
		t.Fatalf("pre-cancelled run drew %d candidates, released %d; want 0, 0", stats.Candidates, out.Len())
	}
}

// BenchmarkGenerateBatched measures the batched kernel at the default batch
// size across multiple workers — the claim-cursor + per-worker-counter
// configuration a serving layer runs — complementing the single-core
// BenchmarkGenerateFrozen number.
func BenchmarkGenerateBatched(b *testing.B) {
	mech := benchMech(b, true, false)
	const candidates = 10000
	b.ReportAllocs()
	b.ResetTimer()
	released := 0
	for i := 0; i < b.N; i++ {
		_, stats, err := GenerateCtx(context.Background(), mech, GenConfig{
			Candidates: candidates, Workers: 4, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		released = stats.Released
	}
	b.ReportMetric(float64(candidates)*float64(b.N)/b.Elapsed().Seconds(), "cands/s")
	if released == 0 {
		b.Fatal("benchmark mechanism released nothing")
	}
}
