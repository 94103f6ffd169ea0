package lotrun

import (
	"math"
	"testing"

	"repro/internal/floor"
)

// TestWatchdogCharts unit-tests the EWMA/CUSUM change detectors on
// synthetic standardized streams. (The in-control case runs on real gate
// distances: TestDriftWatchdogARLOnRigDistances.)
func TestWatchdogCharts(t *testing.T) {
	g := &floor.Gate{TrainMeanD: 1, TrainSigmaD: 0.5}
	cfg := WatchdogConfig{Lambda: 0.2, EWMALimit: 3, CUSUMSlack: 0.5, CUSUMLimit: 8, MinSamples: 10}

	// A 2-sigma mean shift alarms, but not before the warm-up.
	w := NewWatchdog(g, cfg)
	var alarm *DriftAlarm
	for i := 0; i < 100 && alarm == nil; i++ {
		alarm = w.Observe(i, 2.0) // z = +2
		if alarm != nil && alarm.Samples < cfg.MinSamples {
			t.Fatalf("alarm before warm-up: %+v", alarm)
		}
	}
	if alarm == nil {
		t.Fatal("2-sigma shift never alarmed")
	}
	if len(w.Alarms()) != 1 {
		t.Fatalf("alarms recorded: %d", len(w.Alarms()))
	}
	// The charts reset after an alarm and re-arm.
	if w.n != 0 || w.ewma != 0 || w.cusum != 0 {
		t.Fatal("charts must reset after an alarm")
	}
	for i := 0; i < 100; i++ {
		w.Observe(100+i, 2.0)
	}
	if len(w.Alarms()) < 2 {
		t.Fatal("watchdog did not re-arm after the first alarm")
	}

	// Disabled watchdog observes nothing.
	w = NewWatchdog(g, WatchdogConfig{Disabled: true})
	for i := 0; i < 200; i++ {
		if a := w.Observe(i, 100); a != nil {
			t.Fatal("disabled watchdog alarmed")
		}
	}
}

// rankedGate is a hand-built gate whose training distances are the n
// evenly spaced standardized values -2..+2.
func rankedGate(n int) *floor.Gate {
	g := &floor.Gate{TrainMeanD: 1, TrainSigmaD: 0.5, TrainZ: make([]float64, n)}
	for i := range g.TrainZ {
		g.TrainZ[i] = -2 + 4*float64(i)/float64(n-1)
	}
	return g
}

// TestDriftWatchdogRankScore: with TrainZ the charts watch the normal
// score of a distance's rank among the training distances — symmetric,
// bounded at Φ⁻¹((n+½)/(n+1)) however far out the distance lies, and
// monotone in the distance.
func TestDriftWatchdogRankScore(t *testing.T) {
	const n = 100
	w := NewWatchdog(rankedGate(n), WatchdogConfig{})
	bound := math.Sqrt2 * math.Erfinv(2*(n+0.5)/(n+1)-1)
	if math.Abs(bound-2.58) > 0.005 {
		t.Fatalf("rank-score bound for n=100 is %.4f, want ~2.58", bound)
	}
	for _, c := range []struct{ d, want float64 }{
		{1e9, bound},                 // far above every training distance
		{-1e9, -bound},               // far below
		{1 + 0.5*1e-12, 0},           // z just above 0: rank 50 of 100, the median
		{w.mean + w.sigma*20, bound}, // a 20-sigma drift saturates
	} {
		if got := w.score(c.d); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("score(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	prev := math.Inf(-1)
	for d := -1.0; d < 3; d += 0.01 {
		s := w.score(d)
		if s < prev {
			t.Fatalf("score not monotone at d=%v: %v < %v", d, s, prev)
		}
		prev = s
	}
	// A gate without TrainZ (hand-built, or decoded from an artifact
	// written before the rank baseline existed) charts the raw z.
	raw := NewWatchdog(&floor.Gate{TrainMeanD: 1, TrainSigmaD: 0.5}, WatchdogConfig{})
	if got := raw.score(11); got != 20 {
		t.Fatalf("raw z of d=11: got %v, want 20", got)
	}
}

// TestDriftObserveAllocs: Observe runs once per accepted device on the
// commit path; it must cost one table lookup and no allocation.
func TestDriftObserveAllocs(t *testing.T) {
	w := NewWatchdog(rankedGate(100), WatchdogConfig{})
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		w.Observe(i, 0.5+float64(i%7)*0.1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f objects per call, want 0", allocs)
	}
}
