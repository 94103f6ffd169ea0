package regress

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// foldEval fits tr on every row outside fold f of the permuted assignment
// and returns the squared-error sum and count over the held-out rows. It
// touches only its arguments, so folds evaluate concurrently.
func foldEval(tr Trainer, X *linalg.Matrix, y []float64, perm []int, k, f int) (float64, int, error) {
	var trainIdx, testIdx []int
	for i, p := range perm {
		if i%k == f {
			testIdx = append(testIdx, p)
		} else {
			trainIdx = append(trainIdx, p)
		}
	}
	Xt := linalg.NewMatrix(len(trainIdx), X.Cols)
	yt := make([]float64, len(trainIdx))
	for i, p := range trainIdx {
		Xt.SetRow(i, X.Row(p))
		yt[i] = y[p]
	}
	model, err := tr.Fit(Xt, yt)
	if err != nil {
		return 0, 0, fmt.Errorf("regress: fold %d: %w", f, err)
	}
	var sse float64
	for _, p := range testIdx {
		r := model.Predict(X.Row(p)) - y[p]
		sse += r * r
	}
	return sse, len(testIdx), nil
}

func validateCV(X *linalg.Matrix, y []float64, k int) error {
	if X.Rows != len(y) {
		return fmt.Errorf("regress: %d rows vs %d targets", X.Rows, len(y))
	}
	if k < 2 || k > X.Rows {
		return fmt.Errorf("regress: fold count %d invalid for %d rows", k, X.Rows)
	}
	return nil
}

// CrossValidateSeeded estimates a trainer's out-of-sample RMS error with
// k-fold cross-validation. The fold assignment is a shuffle drawn from
// seed alone and the folds evaluate concurrently on workers goroutines
// (1 = inline), accumulating per-fold partial sums that are reduced in
// fold order — so the estimate is bit-identical for every worker count.
func CrossValidateSeeded(tr Trainer, X *linalg.Matrix, y []float64, k int, seed int64, workers int) (float64, error) {
	if err := validateCV(X, y, k); err != nil {
		return 0, err
	}
	perm := rand.New(rand.NewSource(seed)).Perm(X.Rows)
	sse := make([]float64, k)
	count := make([]int, k)
	if err := parallel.ForEach(workers, k, func(f int) error {
		s, c, err := foldEval(tr, X, y, perm, k, f)
		if err != nil {
			return err
		}
		sse[f], count[f] = s, c
		return nil
	}); err != nil {
		return 0, err
	}
	var totSSE float64
	var tot int
	for f := 0; f < k; f++ {
		totSSE += sse[f]
		tot += count[f]
	}
	return math.Sqrt(totSSE / float64(tot)), nil
}

// CrossValidate is CrossValidateSeeded with the fold-assignment seed drawn
// from rng, evaluated serially (kept for callers that thread one RNG
// through a larger experiment).
func CrossValidate(tr Trainer, X *linalg.Matrix, y []float64, k int, rng *rand.Rand) (float64, error) {
	return CrossValidateSeeded(tr, X, y, k, rng.Int63(), 1)
}

// Selection is one target's outcome of SelectBestSeeded: the trainer with
// the lowest CV RMS error, its score, and its model fitted on the full
// data.
type Selection struct {
	Model   Model
	Trainer Trainer
	RMS     float64
}

// TargetError is a SelectBestSeeded failure; Target indexes ys.
type TargetError struct {
	Target int
	Err    error
}

func (e *TargetError) Error() string { return fmt.Sprintf("target %d: %v", e.Target, e.Err) }

func (e *TargetError) Unwrap() error { return e.Err }

// SelectBestSeeded cross-validates every trainer against every target
// ys[t] and returns, per target, the trainer with the lowest CV RMS error
// fitted on the full data. Trainer i's fold assignment for target t
// derives from parallel.SubSeed(seeds[t], i) — its own stream, so a
// trainer's score does not depend on how many trainers or targets ran
// before it (one shared *rand.Rand used to make every later trainer's
// folds shift whenever a trainer was added). Every (target, trainer, fold)
// triple evaluates in one pool of workers goroutines, then the chosen
// trainers' full-data fits run in a second pool. Scores reduce per target
// in fold order and ties break toward the earlier trainer, so selection is
// deterministic and worker-count-independent. A failure is a
// *TargetError naming the lowest failing target.
func SelectBestSeeded(trainers []Trainer, X *linalg.Matrix, ys [][]float64, k int, seeds []int64, workers int) ([]Selection, error) {
	if len(trainers) == 0 {
		return nil, fmt.Errorf("regress: no trainers given")
	}
	if len(seeds) != len(ys) {
		return nil, fmt.Errorf("regress: %d seeds for %d targets", len(seeds), len(ys))
	}
	for t, y := range ys {
		if err := validateCV(X, y, k); err != nil {
			return nil, &TargetError{Target: t, Err: err}
		}
	}
	nt := len(trainers)
	// Pair p = t*nt + i is (target t, trainer i); task p*k + f is its fold f.
	perms := make([][]int, len(ys)*nt)
	for p := range perms {
		perms[p] = rand.New(rand.NewSource(parallel.SubSeed(seeds[p/nt], p%nt))).Perm(X.Rows)
	}
	sse := make([]float64, len(perms)*k)
	count := make([]int, len(perms)*k)
	if err := parallel.ForEach(workers, len(sse), func(task int) error {
		p, f := task/k, task%k
		t, i := p/nt, p%nt
		s, c, err := foldEval(trainers[i], X, ys[t], perms[p], k, f)
		if err != nil {
			return &TargetError{Target: t, Err: fmt.Errorf("regress: %s: %w", trainers[i].Name(), err)}
		}
		sse[task], count[task] = s, c
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]Selection, len(ys))
	for t := range ys {
		best := &out[t]
		best.RMS = math.Inf(1)
		for i := 0; i < nt; i++ {
			var s float64
			var c int
			for f := 0; f < k; f++ {
				s += sse[(t*nt+i)*k+f]
				c += count[(t*nt+i)*k+f]
			}
			if rms := math.Sqrt(s / float64(c)); rms < best.RMS {
				best.RMS, best.Trainer = rms, trainers[i]
			}
		}
	}
	if err := parallel.ForEach(workers, len(ys), func(t int) error {
		model, err := out[t].Trainer.Fit(X, ys[t])
		if err != nil {
			return &TargetError{Target: t, Err: err}
		}
		out[t].Model = model
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SelectBest is SelectBestSeeded for one target, with the base seed drawn
// from rng and serial evaluation (compatibility entry point; per-trainer
// sub-seeding applies either way, so scores are order-independent here
// too).
func SelectBest(trainers []Trainer, X *linalg.Matrix, y []float64, k int, rng *rand.Rand) (Model, Trainer, float64, error) {
	sel, err := SelectBestSeeded(trainers, X, [][]float64{y}, k, []int64{rng.Int63()}, 1)
	if err != nil {
		if te, ok := err.(*TargetError); ok {
			err = te.Err
		}
		return nil, nil, 0, err
	}
	return sel[0].Model, sel[0].Trainer, sel[0].RMS, nil
}
