package modelreg

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/floor"
)

// Bounds are the promotion gates on shadow divergence. Zero values take
// the defaults.
type Bounds struct {
	// MinSamples is how many shadow-scored devices are needed before any
	// verdict — pass or fail — is trusted (default 32).
	MinSamples int
	// MaxDisagreeRate is the tolerated bin disagreement fraction
	// (default 0.02).
	MaxDisagreeRate float64
	// MaxResidualEWMA bounds each per-spec |candidate − incumbent|
	// prediction residual EWMA, in spec units (default 1.0).
	MaxResidualEWMA float64
	// Lambda is the residual EWMA weight (default 0.2).
	Lambda float64
}

func (b *Bounds) defaults() {
	if b.MinSamples <= 0 {
		b.MinSamples = 32
	}
	if b.MaxDisagreeRate <= 0 {
		b.MaxDisagreeRate = 0.02
	}
	if b.MaxResidualEWMA <= 0 {
		b.MaxResidualEWMA = 1.0
	}
	if b.Lambda <= 0 || b.Lambda > 1 {
		b.Lambda = 0.2
	}
}

// DivergenceStats is the accumulated candidate-vs-incumbent evidence.
type DivergenceStats struct {
	Version      int        `json:"version"`
	Scored       int        `json:"scored"`
	Disagree     int        `json:"disagree"`
	DisagreeRate float64    `json:"disagree_rate"`
	ResidualEWMA [3]float64 `json:"residual_ewma"` // gain, NF, IIP3
	// Dropped counts devices the shadow queue shed under load: shadow
	// scoring is advisory and must never backpressure the hot path.
	Dropped int `json:"dropped,omitempty"`
}

// ShadowScorer re-screens committed devices with a candidate engine and
// accumulates divergence against the incumbent's authoritative results.
// It never influences the incumbent's bins — it only watches. Safe for
// concurrent use.
type ShadowScorer struct {
	version int
	eng     *floor.Engine
	bounds  Bounds

	mu      sync.Mutex
	stats   DivergenceStats
	tripped string // first out-of-bounds reason, sticky
}

// NewShadowScorer builds a scorer for candidate version v running eng.
func NewShadowScorer(v int, eng *floor.Engine, b Bounds) *ShadowScorer {
	b.defaults()
	return &ShadowScorer{version: v, eng: eng, bounds: b, stats: DivergenceStats{Version: v}}
}

// Version returns the candidate version being scored.
func (s *ShadowScorer) Version() int { return s.version }

// Observe screens one committed device with the candidate engine — same
// device seed, so the candidate result is exactly what a lot pinned to
// the candidate would have produced — and folds the divergence. inc is
// the incumbent's authoritative result for the same (lot seed, index).
// The re-screen is a one-device batch through the batched kernel, whose
// screener pool the candidate shares with the incumbent (same config and
// stimulus).
func (s *ShadowScorer) Observe(ctx context.Context, lotSeed int64, dev *core.Device, faults *floor.FaultModel, inc floor.DeviceResult) {
	batch := [1]floor.BatchDevice{{Index: inc.Index, Device: dev, Seed: core.DeviceSeed(lotSeed, inc.Index)}}
	cand := s.eng.ScreenBatch(ctx, batch[:], faults)[0]

	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.stats
	st.Scored++
	if cand.Bin != inc.Bin {
		st.Disagree++
	}
	st.DisagreeRate = float64(st.Disagree) / float64(st.Scored)
	lam := s.bounds.Lambda
	res := [3]float64{
		abs(cand.Pred.GainDB - inc.Pred.GainDB),
		abs(cand.Pred.NFDB - inc.Pred.NFDB),
		abs(cand.Pred.IIP3DBm - inc.Pred.IIP3DBm),
	}
	for i := range st.ResidualEWMA {
		st.ResidualEWMA[i] = (1-lam)*st.ResidualEWMA[i] + lam*res[i]
	}
	if s.tripped == "" && st.Scored >= s.bounds.MinSamples {
		if st.DisagreeRate > s.bounds.MaxDisagreeRate {
			s.tripped = fmt.Sprintf("bin disagreement rate %.4f > %.4f after %d devices",
				st.DisagreeRate, s.bounds.MaxDisagreeRate, st.Scored)
		} else {
			for i, e := range st.ResidualEWMA {
				if e > s.bounds.MaxResidualEWMA {
					s.tripped = fmt.Sprintf("spec %d residual EWMA %.4f > %.4f after %d devices",
						i, e, s.bounds.MaxResidualEWMA, st.Scored)
					break
				}
			}
		}
	}
}

// Drop counts a device the shadow queue shed under load.
func (s *ShadowScorer) Drop() {
	s.mu.Lock()
	s.stats.Dropped++
	s.mu.Unlock()
}

// Stats snapshots the accumulated divergence.
func (s *ShadowScorer) Stats() DivergenceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Exceeded reports whether divergence has gone out of bounds (sticky),
// with the first offending reason.
func (s *ShadowScorer) Exceeded() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tripped != "", s.tripped
}

// Healthy reports whether enough devices have been scored and every
// divergence bound held — the precondition for promotion.
func (s *ShadowScorer) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Scored >= s.bounds.MinSamples && s.tripped == ""
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
