package lotrun

import (
	"testing"

	"repro/internal/floor"
)

// TestBreakerStateMachine unit-tests the closed -> open -> half-open
// transitions directly.
func TestBreakerStateMachine(t *testing.T) {
	br := NewBreaker(BreakerConfig{TripConsecutive: 2, ProbeBackoffS: 1, BackoffFactor: 2, MaxBackoffS: 4})
	gated := floor.DeviceResult{Verdicts: []floor.Verdict{floor.VerdictInvalid, floor.VerdictInvalid}}
	clean := floor.DeviceResult{Verdicts: []floor.Verdict{floor.VerdictClean}}

	if br.Record(clean); br.state != stateClosed {
		t.Fatalf("clean outcome moved state to %v", br.state)
	}
	if !br.Record(gated) || br.state != stateOpen {
		t.Fatalf("2 consecutive gated verdicts must trip; state %v", br.state)
	}
	if q := br.BeginProbe(); q != 1 || br.state != stateHalfOpen {
		t.Fatalf("first probe backoff %g state %v", q, br.state)
	}
	// Failed probe: re-open with doubled backoff.
	if !br.Record(gated) || br.state != stateOpen {
		t.Fatalf("failed probe must re-open; state %v", br.state)
	}
	if q := br.BeginProbe(); q != 2 {
		t.Fatalf("second backoff %g, want 2", q)
	}
	// Successful probe closes and resets the backoff history.
	if br.Record(clean); br.state != stateClosed || br.failedOpens != 0 {
		t.Fatalf("clean probe must close; state %v failedOpens %d", br.state, br.failedOpens)
	}
	if br.trips != 2 {
		t.Fatalf("trips %d, want 2", br.trips)
	}
	// Backoff saturates at the cap.
	br.failedOpens = 10
	if q := br.backoff(); q != 4 {
		t.Fatalf("backoff %g, want cap 4", q)
	}
}
