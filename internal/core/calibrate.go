package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/lna"
	"repro/internal/parallel"
	"repro/internal/regress"
	"repro/internal/wave"
)

// Calibration is the paper's "FASTest RF Runtime System" (Fig. 5): per-spec
// normalized regression maps from the measured signature to the data-sheet
// specifications, extracted from a training set of devices that were
// characterized on a conventional RF ATE.
type Calibration struct {
	Stimulus *wave.PWL
	Models   [3]regress.Model // gain, NF, IIP3
	Trainers [3]string        // chosen trainer names
	CVRMS    [3]float64       // cross-validation RMS per spec
}

// CalibrationOptions selects the regression families offered to model
// selection (default: linear, poly-PCA, MARS — mirroring the nonlinear
// regression of refs [4], [9]).
type CalibrationOptions struct {
	Trainers []regress.Trainer
	Folds    int
	// Workers fans the cross-validation out over (spec, trainer, fold)
	// triples, then the final fits over specs; <= 1 evaluates serially.
	// Results are bit-identical either way.
	Workers int
}

func (o *CalibrationOptions) defaults() {
	if len(o.Trainers) == 0 {
		o.Trainers = []regress.Trainer{
			regress.Ridge{Lambda: 1e-8},
			regress.PolyPCA{Components: 8},
			regress.MARS{MaxTerms: 13, Knots: 5},
		}
	}
	if o.Folds <= 0 {
		o.Folds = 5
	}
}

// TrainingDevice pairs a measured signature with ATE-measured specs.
type TrainingDevice struct {
	Signature []float64
	Specs     lna.Specs
}

// Calibrate fits the per-spec maps on the training set in one
// multi-target selection. rng seeds the cross-validation fold
// assignments: one base seed is drawn and every (spec, trainer) pair
// derives its own sub-stream from it, so CV scores are independent of
// evaluation order and of opt.Workers.
func Calibrate(rng *rand.Rand, stim *wave.PWL, training []TrainingDevice, opt CalibrationOptions) (*Calibration, error) {
	if len(training) < 6 {
		return nil, fmt.Errorf("core: need at least 6 training devices, got %d", len(training))
	}
	opt.defaults()
	m := len(training[0].Signature)
	X := linalg.NewMatrix(len(training), m)
	for i, td := range training {
		if len(td.Signature) != m {
			return nil, fmt.Errorf("core: training device %d signature length %d, want %d", i, len(td.Signature), m)
		}
		X.SetRow(i, td.Signature)
	}
	folds := opt.Folds
	if folds > len(training) {
		folds = len(training)
	}
	base := rng.Int63()
	ys := make([][]float64, 3)
	seeds := make([]int64, 3)
	for s := range ys {
		ys[s] = make([]float64, len(training))
		for i, td := range training {
			ys[s][i] = td.Specs.Vector()[s]
		}
		seeds[s] = parallel.SubSeed(base, s)
	}
	sel, err := regress.SelectBestSeeded(opt.Trainers, X, ys, folds, seeds, opt.Workers)
	if err != nil {
		return nil, targetError("calibrating", lna.SpecNames(), err)
	}
	cal := &Calibration{Stimulus: stim}
	for s, b := range sel {
		cal.Models[s] = b.Model
		cal.Trainers[s] = b.Trainer.Name()
		cal.CVRMS[s] = b.RMS
	}
	return cal, nil
}

// targetError names the failing target of a multi-target selection.
func targetError(what string, names []string, err error) error {
	var te *regress.TargetError
	if errors.As(err, &te) {
		return fmt.Errorf("core: %s %s: %w", what, names[te.Target], te.Err)
	}
	return fmt.Errorf("core: %s: %w", what, err)
}

// Predict maps one measured signature to the three specifications — the
// entire production-test computation.
func (c *Calibration) Predict(signature []float64) lna.Specs {
	return lna.Specs{
		GainDB:  c.Models[0].Predict(signature),
		NFDB:    c.Models[1].Predict(signature),
		IIP3DBm: c.Models[2].Predict(signature),
	}
}
