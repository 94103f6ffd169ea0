package lotrun

import (
	"testing"

	"repro/internal/floor"
)

// TestWatchdogCharts unit-tests the EWMA/CUSUM change detectors on
// synthetic standardized streams.
func TestWatchdogCharts(t *testing.T) {
	g := &floor.Gate{TrainMeanD: 1, TrainSigmaD: 0.5}
	cfg := WatchdogConfig{Lambda: 0.2, EWMALimit: 3, CUSUMSlack: 0.5, CUSUMLimit: 8, MinSamples: 10}

	// An in-control stream (distances at the training mean) never alarms.
	w := NewWatchdog(g, cfg)
	for i := 0; i < 500; i++ {
		if a := w.Observe(i, 1.0); a != nil {
			t.Fatalf("in-control stream alarmed at %d: %+v", i, a)
		}
	}

	// A 2-sigma mean shift alarms, but not before the warm-up.
	w = NewWatchdog(g, cfg)
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
