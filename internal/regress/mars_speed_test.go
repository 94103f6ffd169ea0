//go:build !race

package regress_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/regress"
	"repro/internal/rig"
)

// TestMARSFitSpeedup is the forward pass's speed gate. On one
// cross-validation fold (4/5 of the rows) of each spec of the lna quick
// rig's training set (seed 1), MARS.Fit must be at least 3× faster than the
// SVD-per-candidate reference, best of 3 passes each, taken in one
// process so the ratio holds on any host. A Fit that falls back to an SVD
// per candidate reads ~1×. Excluded under -race, which distorts the
// ratio.
func TestMARSFitSpeedup(t *testing.T) {
	r, err := rig.Build(rig.Params{DUT: "lna", Seed: 1, Quick: true, Produce: 1, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	n := len(r.Train)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	type fold struct {
		X *linalg.Matrix
		y []float64
	}
	var idx []int
	for i, p := range perm {
		if i%k != 0 {
			idx = append(idx, p)
		}
	}
	var folds []fold
	for s := 0; s < 3; s++ {
		X := linalg.NewMatrix(len(idx), len(r.Train[0].Signature))
		y := make([]float64, len(idx))
		for i, p := range idx {
			X.SetRow(i, r.Train[p].Signature)
			y[i] = r.Train[p].Specs.Vector()[s]
		}
		folds = append(folds, fold{X, y})
	}
	m := regress.MARS{MaxTerms: 13, Knots: 5}
	bestOf3 := func(tr regress.Trainer) time.Duration {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for _, f := range folds {
				if _, err := tr.Fit(f.X, f.y); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	ref := bestOf3(regress.ReferenceMARS(m))
	fast := bestOf3(m)
	speedup := float64(ref) / float64(fast)
	t.Logf("reference %v/fit, Fit %v/fit, speedup %.1fx", ref/time.Duration(len(folds)), fast/time.Duration(len(folds)), speedup)
	if speedup < 3 {
		t.Fatalf("MARS.Fit is only %.1fx faster than the SVD-per-candidate reference, want >= 3x", speedup)
	}
}
