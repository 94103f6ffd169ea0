package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// cvFixture builds a small noisy linear problem.
func cvFixture(seed int64, n, d int) (*linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := linalg.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			s += float64(j+1) * row[j]
		}
		X.SetRow(i, row)
		y[i] = s + 0.05*rng.NormFloat64()
	}
	return X, y
}

// Regression for the shared-RNG bug: a trainer's CV score must not depend
// on how many trainers were evaluated before it.
func TestSelectBestScoresOrderIndependent(t *testing.T) {
	X, y := cvFixture(1, 40, 3)
	score := func(trainers []Trainer, want Trainer) float64 {
		sel, err := SelectBestSeeded(trainers, X, [][]float64{y}, 5, []int64{123}, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, rms := sel[0].Trainer, sel[0].RMS
		if tr.Name() != want.Name() {
			t.Fatalf("expected %s to win, got %s", want.Name(), tr.Name())
		}
		return rms
	}
	// Plain ridge wins on a linear problem against an absurdly
	// over-regularized competitor; appending more losing trainers must not
	// move its winning score — under the old shared-RNG scheme every
	// trainer evaluated earlier shifted the fold assignment of the ones
	// after it.
	awful := Ridge{Lambda: 1e9} // shrinks to the mean, always loses
	a := score([]Trainer{Ridge{}}, Ridge{})
	b := score([]Trainer{Ridge{}, awful}, Ridge{})
	c := score([]Trainer{Ridge{}, awful, awful}, Ridge{})
	if a != b || b != c {
		t.Fatalf("ridge CV score depends on the trainer line-up: %g / %g / %g", a, b, c)
	}
}

func TestSelectBestSeededWorkerBitIdentity(t *testing.T) {
	X, y := cvFixture(2, 36, 4)
	trainers := []Trainer{Ridge{}, Ridge{Lambda: 0.5}, PolyPCA{Components: 3}}
	run := func(workers int) (string, float64) {
		sel, err := SelectBestSeeded(trainers, X, [][]float64{y}, 6, []int64{77}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return sel[0].Trainer.Name(), sel[0].RMS
	}
	refName, refRMS := run(1)
	for _, w := range []int{4, 8} {
		name, rms := run(w)
		if name != refName || rms != refRMS {
			t.Fatalf("workers=%d: %s/%v vs serial %s/%v", w, name, rms, refName, refRMS)
		}
	}
}

// TestSelectBestSeededMultiTarget: one multi-target selection equals a
// one-target selection per target with the same seed — same trainer, same
// CV score, same full-data model bit for bit — at every worker count.
func TestSelectBestSeededMultiTarget(t *testing.T) {
	X, y0 := cvFixture(5, 36, 4)
	_, y1 := cvFixture(6, 36, 4)
	y2 := make([]float64, len(y0))
	for i := range y2 {
		r := X.Row(i)
		y2[i] = r[0]*r[1] + math.Abs(r[2]) // nonlinear: MARS should compete
	}
	ys := [][]float64{y0, y1, y2}
	seeds := []int64{3, 4, 5}
	trainers := []Trainer{Ridge{}, PolyPCA{Components: 3}, MARS{MaxTerms: 7, Knots: 3}}
	for _, workers := range []int{1, 2, 5} {
		sel, err := SelectBestSeeded(trainers, X, ys, 6, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for tg, y := range ys {
			one, err := SelectBestSeeded(trainers, X, [][]float64{y}, 6, seeds[tg:tg+1], 1)
			if err != nil {
				t.Fatal(err)
			}
			if sel[tg].Trainer.Name() != one[0].Trainer.Name() || math.Float64bits(sel[tg].RMS) != math.Float64bits(one[0].RMS) {
				t.Fatalf("workers=%d target %d: %s/%v vs one-target %s/%v", workers, tg,
					sel[tg].Trainer.Name(), sel[tg].RMS, one[0].Trainer.Name(), one[0].RMS)
			}
			for i := 0; i < X.Rows; i++ {
				a, b := sel[tg].Model.Predict(X.Row(i)), one[0].Model.Predict(X.Row(i))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("workers=%d target %d row %d: model %v vs one-target %v", workers, tg, i, a, b)
				}
			}
		}
	}
	if _, err := SelectBestSeeded(trainers, X, ys, 6, seeds[:2], 1); err == nil {
		t.Fatal("expected an error for a missing seed")
	}
	short := [][]float64{y0, y1[:10]}
	_, err := SelectBestSeeded(trainers, X, short, 6, seeds[:2], 1)
	var te *TargetError
	if !errors.As(err, &te) || te.Target != 1 {
		t.Fatalf("mis-sized target 1: got %v, want a *TargetError for target 1", err)
	}
}

func TestCrossValidateSeededWorkerBitIdentity(t *testing.T) {
	X, y := cvFixture(3, 30, 3)
	ref, err := CrossValidateSeeded(Ridge{}, X, y, 5, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		got, err := CrossValidateSeeded(Ridge{}, X, y, 5, 7, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("workers=%d: RMS %v vs serial %v", w, got, ref)
		}
	}
}

func TestCrossValidateSeededStableAcrossCalls(t *testing.T) {
	X, y := cvFixture(4, 24, 2)
	a, err := CrossValidateSeeded(Ridge{}, X, y, 4, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidateSeeded(Ridge{}, X, y, 4, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || math.IsNaN(a) {
		t.Fatalf("same seed must give one score: %v vs %v", a, b)
	}
}
