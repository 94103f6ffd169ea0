package core

import (
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/rf"
	"repro/internal/wave"
)

// Sensitivities holds the paper's two linearizations around the nominal
// process point (Eqs. 6-7): Ap (n x k) maps process perturbations to spec
// perturbations, As (m x k) maps them to signature perturbations.
type Sensitivities struct {
	Ap *linalg.Matrix
	As *linalg.Matrix
}

// finite-difference step in relative parameter units.
const fdStep = 0.02

// SpecSensitivity computes Ap by central differences of the model's specs.
// It is stimulus-independent, so callers compute it once and reuse it for
// every stimulus candidate.
func SpecSensitivity(model DeviceModel) (*linalg.Matrix, error) {
	k := model.NumParams()
	ap := linalg.NewMatrix(3, k)
	for j := 0; j < k; j++ {
		rel := make([]float64, k)
		rel[j] = fdStep
		sp, err := model.Specs(rel)
		if err != nil {
			return nil, fmt.Errorf("core: spec sensitivity +%d: %w", j, err)
		}
		rel[j] = -fdStep
		sm, err := model.Specs(rel)
		if err != nil {
			return nil, fmt.Errorf("core: spec sensitivity -%d: %w", j, err)
		}
		vp, vm := sp.Vector(), sm.Vector()
		for i := 0; i < 3; i++ {
			ap.Set(i, j, (vp[i]-vm[i])/(2*fdStep))
		}
	}
	return ap, nil
}

// BehavioralSet caches the behavioral models needed for signature
// sensitivities: nominal plus central-difference points per parameter.
// They are stimulus-independent, so one set serves the whole GA run.
type BehavioralSet struct {
	K       int
	Nominal rf.EnvelopeDevice
	Plus    []rf.EnvelopeDevice
	Minus   []rf.EnvelopeDevice
}

// NewBehavioralSet extracts the 2k+1 behavioral models.
func NewBehavioralSet(model DeviceModel) (*BehavioralSet, error) {
	k := model.NumParams()
	set := &BehavioralSet{K: k, Plus: make([]rf.EnvelopeDevice, k), Minus: make([]rf.EnvelopeDevice, k)}
	var err error
	set.Nominal, err = model.Behavioral(make([]float64, k))
	if err != nil {
		return nil, fmt.Errorf("core: nominal behavioral: %w", err)
	}
	for j := 0; j < k; j++ {
		rel := make([]float64, k)
		rel[j] = fdStep
		if set.Plus[j], err = model.Behavioral(rel); err != nil {
			return nil, fmt.Errorf("core: behavioral +%d: %w", j, err)
		}
		rel[j] = -fdStep
		if set.Minus[j], err = model.Behavioral(rel); err != nil {
			return nil, fmt.Errorf("core: behavioral -%d: %w", j, err)
		}
	}
	return set, nil
}

// SignatureSensitivity computes As for one stimulus by central differences
// of noise-free signature acquisitions over the cached behavioral set. The
// 2k perturbed devices run as one batch through the batched acquisition
// kernel, in the order Plus[0], Minus[0], Plus[1], ... a serial loop would
// take them; As is Float64bits-identical to that loop.
func (c *TestConfig) SignatureSensitivity(set *BehavioralSet, stim *wave.PWL) (*linalg.Matrix, error) {
	duts := make([]rf.EnvelopeDevice, 0, 2*set.K)
	for j := 0; j < set.K; j++ {
		duts = append(duts, set.Plus[j], set.Minus[j])
	}
	sigs, bad, err := acquireAll(c, stim, duts, make([]*rand.Rand, len(duts)))
	if err != nil {
		sign := "+"
		if bad%2 == 1 {
			sign = "-"
		}
		return nil, fmt.Errorf("core: signature sensitivity %s%d: %w", sign, bad/2, err)
	}
	var as *linalg.Matrix
	for j := 0; j < set.K; j++ {
		sp, sm := sigs[2*j], sigs[2*j+1]
		if as == nil {
			as = linalg.NewMatrix(len(sp), set.K)
		}
		for i := range sp {
			as.Set(i, j, (sp[i]-sm[i])/(2*fdStep))
		}
	}
	return as, nil
}
