package lotrun

import (
	"math"
	"sort"
	"sync"

	"repro/internal/floor"
)

// WatchdogConfig tunes the drift watchdog. The regression map is only
// valid inside the region its training set covered; when the process (or
// the tester) drifts, clean captures slide toward the edge of the training
// envelope long before they gate out. The watchdog watches the stream of
// accepted-capture gate distances through the two classic change
// detectors: an EWMA control chart (slow mean shifts) and a one-sided
// CUSUM (accumulated small shifts). Either crossing its limit raises a
// recalibration alarm.
//
// Gate distances are heavy-tailed (on the lna rig a production device's
// standardized distance has q50 -0.46 and q99 +4.3 training sigmas), so
// the charts do not watch the standardized distance itself: each one is
// replaced by the normal score of its rank among the training set's own
// standardized distances (floor.Gate.TrainZ). The score is bounded — at
// most Φ⁻¹((n+½)/(n+1)), 2.58 for 100 training devices — so one tail
// device cannot carry a chart past its limit, while a sustained shift
// still moves every score up.
type WatchdogConfig struct {
	// Disabled turns the watchdog off (it is otherwise active whenever the
	// engine runs gated).
	Disabled bool
	// Lambda is the EWMA weight (default 0.2).
	Lambda float64
	// EWMALimit is the alarm threshold in asymptotic EWMA sigmas of the
	// rank score (default 3.5, measured on lot-shaped streams of real lna
	// gate distances: no false alarm in 50,564 devices; see DESIGN.md).
	EWMALimit float64
	// CUSUMSlack is the CUSUM allowance k in score units (default 0.5:
	// tuned to detect ~1-sigma mean shifts).
	CUSUMSlack float64
	// CUSUMLimit is the CUSUM decision interval h in score units
	// (default 10).
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
		c.EWMALimit = 3.5
	}
	if c.CUSUMSlack <= 0 {
		c.CUSUMSlack = 0.5
	}
	if c.CUSUMLimit <= 0 {
		c.CUSUMLimit = 10
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
	// EWMA and CUSUM are the chart values at the alarm (score units).
	EWMA, CUSUM float64
}

// Watchdog monitors accepted-capture gate distances for process drift
// against a gate's training statistics. It is safe for concurrent use;
// the lot server feeds it from each lot's collector goroutine.
type Watchdog struct {
	mu          sync.Mutex
	cfg         WatchdogConfig
	mean, sigma float64 // training baseline to standardize against
	// trainZ is the gate's sorted standardized training distances and
	// scores[k] the normal score of rank k among them; both nil for a
	// gate without TrainZ, whose charts watch the raw standardized
	// distance.
	trainZ []float64
	scores []float64

	n      int
	ewma   float64
	cusum  float64
	alarms []DriftAlarm
}

// NewWatchdog builds a watchdog standardizing against the gate's training
// distance statistics and, when the gate carries TrainZ, ranking against
// the training distances themselves. The n+1 rank scores are computed
// here, once, so Observe costs one binary search.
func NewWatchdog(g *floor.Gate, cfg WatchdogConfig) *Watchdog {
	cfg.defaults()
	w := &Watchdog{cfg: cfg, mean: g.TrainMeanD, sigma: math.Max(g.TrainSigmaD, 1e-15)}
	if n := len(g.TrainZ); n > 0 {
		w.trainZ = g.TrainZ
		w.scores = make([]float64, n+1)
		for k := range w.scores {
			p := (float64(k) + 0.5) / float64(n+1)
			w.scores[k] = math.Sqrt2 * math.Erfinv(2*p-1)
		}
	}
	return w
}

// score maps one distance to the value the charts watch: its standardized
// distance z, replaced by the normal score of z's rank in the training
// distances when the gate provided them.
func (w *Watchdog) score(d float64) float64 {
	z := (d - w.mean) / w.sigma
	if w.scores == nil {
		return z
	}
	return w.scores[sort.SearchFloat64s(w.trainZ, z)]
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
	z := w.score(d)
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
