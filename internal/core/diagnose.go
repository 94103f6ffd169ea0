package core

import (
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/regress"
)

// Diagnosis is the follow-on capability the authors published next
// (Cherubal & Chatterjee, "Parametric fault diagnosis for analog systems
// using functional mapping", DATE 1999 — reference [9]): instead of (only)
// predicting the data-sheet specs, regress the signature back onto the
// process parameters themselves, so a failing lot can be traced to the
// parameter that drifted.
type Diagnosis struct {
	models []regress.Model // one per process parameter (relative units)
	names  []string
	k      int
	// Sigma[p] is the cross-validated RMS error of parameter p's estimate:
	// its diagnostic uncertainty. Parameters whose signature footprint is
	// weak have Sigma comparable to the process spread itself.
	Sigma []float64
}

// CalibrateDiagnosis fits per-parameter regression maps from signatures to
// the relative process perturbations of the training devices.
func CalibrateDiagnosis(rng *rand.Rand, training []TrainingDevice, devices []*Device, names []string, opt CalibrationOptions) (*Diagnosis, error) {
	if len(training) != len(devices) {
		return nil, fmt.Errorf("core: %d training signatures vs %d devices", len(training), len(devices))
	}
	if len(training) < 6 {
		return nil, fmt.Errorf("core: need at least 6 training devices, got %d", len(training))
	}
	k := len(devices[0].Rel)
	if k == 0 {
		return nil, fmt.Errorf("core: devices carry no process coordinates")
	}
	if len(names) != k {
		return nil, fmt.Errorf("core: %d parameter names for %d parameters", len(names), k)
	}
	opt.defaults()
	m := len(training[0].Signature)
	X := linalg.NewMatrix(len(training), m)
	for i, td := range training {
		X.SetRow(i, td.Signature)
	}
	folds := opt.Folds
	if folds > len(training) {
		folds = len(training)
	}
	base := rng.Int63()
	ys := make([][]float64, k)
	seeds := make([]int64, k)
	for p := range ys {
		ys[p] = make([]float64, len(devices))
		for i, dev := range devices {
			ys[p][i] = dev.Rel[p]
		}
		seeds[p] = parallel.SubSeed(base, p)
	}
	sel, err := regress.SelectBestSeeded(opt.Trainers, X, ys, folds, seeds, opt.Workers)
	if err != nil {
		return nil, targetError("diagnosing", names, err)
	}
	d := &Diagnosis{k: k, names: append([]string(nil), names...)}
	for _, b := range sel {
		d.models = append(d.models, b.Model)
		d.Sigma = append(d.Sigma, b.RMS)
	}
	return d, nil
}

// Observable reports whether parameter p leaves a usable footprint in the
// signature: its estimate must be meaningfully better than guessing, i.e.
// its CV uncertainty below frac of the training spread (std of a uniform
// +/-spread variable is spread/sqrt(3)).
func (d *Diagnosis) Observable(p int, spread, frac float64) bool {
	prior := spread / 1.7320508075688772
	return d.Sigma[p] < frac*prior
}

// Estimate predicts the relative process perturbation vector from one
// signature.
func (d *Diagnosis) Estimate(signature []float64) []float64 {
	out := make([]float64, d.k)
	for p := 0; p < d.k; p++ {
		out[p] = d.models[p].Predict(signature)
	}
	return out
}

// Culprit returns the parameter with the largest estimated deviation in
// units of its own diagnostic uncertainty (a z-score ranking, so weakly
// observable parameters cannot win on noise) plus the estimated relative
// deviation — the headline of a diagnosis report.
func (d *Diagnosis) Culprit(signature []float64) (string, float64) {
	est := d.Estimate(signature)
	best := 0
	bestZ := -1.0
	for p := 0; p < d.k; p++ {
		sigma := d.Sigma[p]
		if sigma <= 0 {
			sigma = 1e-12
		}
		if z := abs(est[p]) / sigma; z > bestZ {
			bestZ, best = z, p
		}
	}
	return d.names[best], est[best]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// SensitivityDiagnosis performs single-fault dictionary diagnosis on the
// linearized signature map of Eq. 7: the measured signature deviation
// delta_s is matched against each column a_j of the signature sensitivity
// matrix by cosine similarity. For a single drifted parameter,
// delta_s ~ a_p * delta_x_p, so the best-aligned column names the culprit
// and the projection onto it estimates the drift. (A joint pseudoinverse
// solve is NOT used: As is rank-deficient — several parameters share a
// low-dimensional observable subspace — and inverting it amplifies
// linearization error catastrophically; matched filtering is the robust
// classic for the single-fault case.)
type SensitivityDiagnosis struct {
	cols    [][]float64 // sensitivity columns
	norms   []float64
	nominal []float64
	names   []string
}

// NewSensitivityDiagnosis builds the matcher from the signature
// sensitivity matrix As (m x k), the nominal (noise-free) signature, and
// parameter names.
func NewSensitivityDiagnosis(as *linalg.Matrix, nominalSig []float64, names []string) (*SensitivityDiagnosis, error) {
	if as.Rows != len(nominalSig) {
		return nil, fmt.Errorf("core: As has %d signature rows, nominal signature has %d", as.Rows, len(nominalSig))
	}
	if as.Cols != len(names) {
		return nil, fmt.Errorf("core: As has %d parameters, %d names given", as.Cols, len(names))
	}
	d := &SensitivityDiagnosis{
		nominal: append([]float64(nil), nominalSig...),
		names:   append([]string(nil), names...),
	}
	for j := 0; j < as.Cols; j++ {
		col := as.Col(j)
		d.cols = append(d.cols, col)
		d.norms = append(d.norms, linalg.Norm2(col))
	}
	return d, nil
}

func (d *SensitivityDiagnosis) deviation(signature []float64) []float64 {
	ds := make([]float64, len(signature))
	for i := range ds {
		ds[i] = signature[i] - d.nominal[i]
	}
	return ds
}

// Scores returns the |cosine similarity| between the signature deviation
// and each parameter's sensitivity direction.
func (d *SensitivityDiagnosis) Scores(signature []float64) []float64 {
	ds := d.deviation(signature)
	dn := linalg.Norm2(ds)
	out := make([]float64, len(d.cols))
	if dn == 0 {
		return out
	}
	for j, col := range d.cols {
		if d.norms[j] == 0 {
			continue
		}
		out[j] = abs(linalg.Dot(ds, col)) / (dn * d.norms[j])
	}
	return out
}

// Estimate returns the per-parameter matched projection delta_x_j =
// <delta_s, a_j>/<a_j, a_j> — the drift each parameter would need on its
// own to explain the signature.
func (d *SensitivityDiagnosis) Estimate(signature []float64) []float64 {
	ds := d.deviation(signature)
	out := make([]float64, len(d.cols))
	for j, col := range d.cols {
		if d.norms[j] == 0 {
			continue
		}
		out[j] = linalg.Dot(ds, col) / (d.norms[j] * d.norms[j])
	}
	return out
}

// Culprit names the best-matching parameter and its estimated drift.
func (d *SensitivityDiagnosis) Culprit(signature []float64) (string, float64) {
	scores := d.Scores(signature)
	best := 0
	for j := 1; j < len(scores); j++ {
		if scores[j] > scores[best] {
			best = j
		}
	}
	return d.names[best], d.Estimate(signature)[best]
}

// Ambiguous reports whether parameters p and q have nearly parallel
// sensitivity directions (|cosine| above threshold) and therefore cannot be
// distinguished by single-fault matching.
func (d *SensitivityDiagnosis) Ambiguous(p, q int, threshold float64) bool {
	if d.norms[p] == 0 || d.norms[q] == 0 {
		return false
	}
	c := abs(linalg.Dot(d.cols[p], d.cols[q])) / (d.norms[p] * d.norms[q])
	return c >= threshold
}

// IndexOf returns the index of a parameter name (-1 if absent).
func (d *SensitivityDiagnosis) IndexOf(name string) int {
	for i, n := range d.names {
		if n == name {
			return i
		}
	}
	return -1
}
