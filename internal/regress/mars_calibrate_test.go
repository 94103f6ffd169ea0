package regress_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/lna"
	"repro/internal/regress"
	"repro/internal/rig"
)

// checkedMARS is a MARS trainer whose every Fit also runs the
// SVD-per-candidate reference on the same rows and fails t unless both
// models are bit-identical.
type checkedMARS struct {
	regress.MARS
	t    *testing.T
	fits *atomic.Int64
}

func (c checkedMARS) Fit(X *linalg.Matrix, y []float64) (regress.Model, error) {
	got, err := c.MARS.Fit(X, y)
	if err != nil {
		return nil, err
	}
	want, err := regress.ReferenceMARS(c.MARS).Fit(X, y)
	if err != nil {
		return nil, err
	}
	if diff := regress.MARSDiff(got, want); diff != "" {
		c.t.Errorf("%dx%d fit differs from the SVD-per-candidate reference: %s", X.Rows, X.Cols, diff)
	}
	c.fits.Add(1)
	return got, nil
}

// TestMARSFitBitIdentityCalibrate runs every MARS fit of core.Calibrate
// and core.CalibrateDiagnosis — each cross-validation fold and each
// full-data fit — against the reference, on the training sets of the lna
// and rf2401 quick rigs at seeds 1-3 (seed 1 only under -short or -race,
// where the three seeds take ~10 minutes). The trainer list is
// Calibrate's default, in its order, so the folds are the ones Calibrate
// draws.
func TestMARSFitBitIdentityCalibrate(t *testing.T) {
	seeds := int64(3)
	if testing.Short() || raceDetector {
		seeds = 1
	}
	for _, dut := range []string{"lna", "rf2401"} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", dut, seed), func(t *testing.T) {
				r, err := rig.Build(rig.Params{DUT: dut, Seed: seed, Quick: true, Produce: 1, Workers: 2}, nil)
				if err != nil {
					t.Fatal(err)
				}
				var fits atomic.Int64
				opt := core.CalibrationOptions{Workers: 2, Trainers: []regress.Trainer{
					regress.Ridge{Lambda: 1e-8},
					regress.PolyPCA{Components: 8},
					checkedMARS{MARS: regress.MARS{MaxTerms: 13, Knots: 5}, t: t, fits: &fits},
				}}
				if _, err := core.Calibrate(rand.New(rand.NewSource(seed)), r.Stim, r.Train, opt); err != nil {
					t.Fatal(err)
				}
				// Diagnosis targets are the process coordinates of a fresh
				// population screened with the rig's stimulus.
				pop, err := core.GeneratePopulation(rand.New(rand.NewSource(seed)), r.Model, 40, r.Spread)
				if err != nil {
					t.Fatal(err)
				}
				td, err := core.AcquireTrainingSetSeeded(seed, r.Cfg, r.Stim, pop,
					func(d *core.Device) lna.Specs { return d.Specs }, 2)
				if err != nil {
					t.Fatal(err)
				}
				names := make([]string, len(pop[0].Rel))
				for i := range names {
					names[i] = fmt.Sprintf("p%d", i)
				}
				if _, err := core.CalibrateDiagnosis(rand.New(rand.NewSource(seed)), td, pop, names, opt); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d MARS fits bit-identical", fits.Load())
			})
		}
	}
}
