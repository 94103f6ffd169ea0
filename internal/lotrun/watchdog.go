package lotrun

import (
	"math"
	"sync"

	"repro/internal/floor"
)

// WatchdogConfig tunes the drift watchdog. The regression map is only
// valid inside the region its training set covered; when the process (or
// the tester) drifts, clean captures slide toward the edge of the training
// envelope long before they gate out. The watchdog watches the stream of
// accepted-capture gate distances, standardized against the training
// set's own distance statistics, through the two classic change
// detectors: an EWMA control chart (slow mean shifts) and a one-sided
// CUSUM (accumulated small shifts). Either crossing its limit raises a
// recalibration alarm.
type WatchdogConfig struct {
	// Disabled turns the watchdog off (it is otherwise active whenever the
	// engine runs gated).
	Disabled bool
	// Lambda is the EWMA weight (default 0.2).
	Lambda float64
	// EWMALimit is the alarm threshold in asymptotic EWMA sigmas of the
	// standardized distance (default 3 — the usual 3-sigma control limit).
	EWMALimit float64
	// CUSUMSlack is the CUSUM allowance k in training sigmas (default 0.5:
	// tuned to detect ~1-sigma mean shifts).
	CUSUMSlack float64
	// CUSUMLimit is the CUSUM decision interval h in training sigmas
	// (default 8).
	CUSUMLimit float64
	// MinSamples is the number of observations required before an alarm
	// can fire (default 16) — a warm-up so the first few devices of a lot
	// cannot trip the chart.
	MinSamples int
}

func (c *WatchdogConfig) defaults() {
	if c.Lambda <= 0 || c.Lambda > 1 {
		c.Lambda = 0.2
	}
	if c.EWMALimit <= 0 {
		c.EWMALimit = 3
	}
	if c.CUSUMSlack <= 0 {
		c.CUSUMSlack = 0.5
	}
	if c.CUSUMLimit <= 0 {
		c.CUSUMLimit = 8
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
}

// DriftAlarm is one recalibration alarm raised by the watchdog.
type DriftAlarm struct {
	// Device is the lot index whose observation crossed the limit.
	Device int
	// Detector names the chart that fired: "ewma" or "cusum".
	Detector string
	// Samples is how many observations the charts had accumulated.
	Samples int
	// EWMA and CUSUM are the chart values at the alarm (standardized
	// units).
	EWMA, CUSUM float64
}

// Watchdog monitors accepted-capture gate distances for process drift
// against a gate's training statistics. It is safe for concurrent use;
// the lot server feeds it from each lot's collector goroutine.
type Watchdog struct {
	mu          sync.Mutex
	cfg         WatchdogConfig
	mean, sigma float64 // training baseline to standardize against

	n      int
	ewma   float64
	cusum  float64
	alarms []DriftAlarm
}

// NewWatchdog builds a watchdog standardizing against the gate's training
// distance statistics.
func NewWatchdog(g *floor.Gate, cfg WatchdogConfig) *Watchdog {
	cfg.defaults()
	return &Watchdog{cfg: cfg, mean: g.TrainMeanD, sigma: math.Max(g.TrainSigmaD, 1e-15)}
}

// ewmaLimit is the alarm threshold on the EWMA chart: EWMALimit asymptotic
// EWMA sigmas, where the EWMA of a unit-variance stream has asymptotic
// sigma sqrt(lambda/(2-lambda)).
func (w *Watchdog) ewmaLimit() float64 {
	return w.cfg.EWMALimit * math.Sqrt(w.cfg.Lambda/(2-w.cfg.Lambda))
}

// Observe folds one accepted-capture distance into the charts and returns
// a non-nil alarm if a control limit was crossed. After an alarm the
// charts reset, so the watchdog re-arms (e.g. to verify a recalibration
// actually brought the process back).
func (w *Watchdog) Observe(device int, d float64) *DriftAlarm {
	if w == nil || w.cfg.Disabled {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	z := (d - w.mean) / w.sigma
	w.n++
	w.ewma = (1-w.cfg.Lambda)*w.ewma + w.cfg.Lambda*z
	w.cusum = math.Max(0, w.cusum+z-w.cfg.CUSUMSlack)
	if w.n < w.cfg.MinSamples {
		return nil
	}
	detector := ""
	switch {
	case w.ewma > w.ewmaLimit():
		detector = "ewma"
	case w.cusum > w.cfg.CUSUMLimit:
		detector = "cusum"
	default:
		return nil
	}
	alarm := DriftAlarm{Device: device, Detector: detector, Samples: w.n, EWMA: w.ewma, CUSUM: w.cusum}
	w.alarms = append(w.alarms, alarm)
	w.n, w.ewma, w.cusum = 0, 0, 0
	return &alarm
}

// Alarms returns the alarms raised so far.
func (w *Watchdog) Alarms() []DriftAlarm {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]DriftAlarm, len(w.alarms))
	copy(out, w.alarms)
	return out
}
