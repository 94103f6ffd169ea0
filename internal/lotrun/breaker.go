package lotrun

import (
	"fmt"

	"repro/internal/floor"
)

// BreakerConfig tunes the per-site circuit breaker. A tester site whose
// contactor is wearing out (or whose board has drifted) does not fail one
// device — it fails a run of them, and every gated-out insertion it burns
// is a retest the lot pays for. The breaker watches each site's insertion
// verdicts and takes the site out of rotation when they indicate a site
// problem rather than a device problem.
type BreakerConfig struct {
	// TripConsecutive is the number of consecutive gated-out insertion
	// verdicts (INVALID or SUSPECT, including acquisition errors and
	// supervision faults) that trips the site (default 8). A CLEAN capture
	// resets the run — healthy sites see CLEAN on almost every device, so
	// only a systemic site fault sustains a run this long.
	TripConsecutive int
	// ProbeBackoffS is the modeled quarantine time before the first
	// half-open re-probe insertion (default 5 s — contactor cool-down /
	// operator-glance scale).
	ProbeBackoffS float64
	// BackoffFactor grows the quarantine on each failed probe (default 2).
	BackoffFactor float64
	// MaxBackoffS caps the quarantine growth (default 60 s).
	MaxBackoffS float64
}

func (c *BreakerConfig) defaults() {
	if c.TripConsecutive <= 0 {
		c.TripConsecutive = 8
	}
	if c.ProbeBackoffS <= 0 {
		c.ProbeBackoffS = 5
	}
	if c.BackoffFactor < 1 {
		c.BackoffFactor = 2
	}
	if c.MaxBackoffS <= 0 {
		c.MaxBackoffS = 60
	}
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	stateClosed   breakerState = iota // normal service
	stateOpen                         // quarantined, waiting out the backoff
	stateHalfOpen                     // next device is the probe insertion
)

func (s breakerState) String() string {
	switch s {
	case stateClosed:
		return "closed"
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// TripEvent records one breaker trip for the lot report.
type TripEvent struct {
	Site int
	// AfterDevice is the device index whose outcome tripped the breaker
	// (or whose probe failed).
	AfterDevice int
	// Consecutive is the gated-out run length at the trip.
	Consecutive int
	// QuarantineS is the modeled backoff charged before the next probe.
	QuarantineS float64
}

// Breaker is one site's circuit breaker. It is not safe for concurrent
// use: the lot server keeps one per (lot, worker) and serializes every
// call under the lot's mutex.
type Breaker struct {
	cfg         BreakerConfig
	state       breakerState
	consecutive int     // current gated-out insertion run
	failedOpens int     // consecutive failed probes (drives backoff growth)
	trips       int     // total trips
	quarantineS float64 // total modeled quarantine charged
	events      []TripEvent
}

// NewBreaker builds a breaker with the config's defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.defaults()
	return &Breaker{cfg: cfg}
}

// backoff is the modeled quarantine for the current open period.
func (b *Breaker) backoff() float64 {
	q := b.cfg.ProbeBackoffS
	for i := 0; i < b.failedOpens-1; i++ {
		q *= b.cfg.BackoffFactor
		if q >= b.cfg.MaxBackoffS {
			return b.cfg.MaxBackoffS
		}
	}
	return q
}

// BeginProbe transitions open -> half-open, charging the quarantine
// backoff. The lot server calls it when a worker's next result arrives
// while the breaker is open; that device is the probe insertion, and the
// Record that follows decides it.
func (b *Breaker) BeginProbe() float64 {
	if b.state != stateOpen {
		return 0
	}
	q := b.backoff()
	b.quarantineS += q
	b.state = stateHalfOpen
	return q
}

// Record folds one device outcome into the state machine. Each insertion
// verdict counts individually: CLEAN resets the gated-out run, anything
// else extends it; a supervision fault (panic, deadline) counts as one
// more failure. Returns true if this outcome tripped (or re-tripped) the
// breaker.
func (b *Breaker) Record(res floor.DeviceResult) bool {
	for _, v := range res.Verdicts {
		if v == floor.VerdictClean {
			b.consecutive = 0
		} else {
			b.consecutive++
		}
	}
	if res.Err != "" {
		b.consecutive++
	}
	probeClean := res.Err == "" && len(res.Verdicts) > 0 &&
		res.Verdicts[len(res.Verdicts)-1] == floor.VerdictClean

	switch b.state {
	case stateHalfOpen:
		if probeClean {
			// Probe succeeded: close and forget the backoff history.
			b.state = stateClosed
			b.failedOpens = 0
			b.consecutive = 0
			return false
		}
		// Probe failed: back to quarantine with a longer backoff.
		b.failedOpens++
		b.trips++
		b.state = stateOpen
		b.events = append(b.events, TripEvent{
			Site: res.Site, AfterDevice: res.Index,
			Consecutive: b.consecutive, QuarantineS: b.backoff(),
		})
		return true
	case stateClosed:
		if b.consecutive >= b.cfg.TripConsecutive {
			b.failedOpens = 1
			b.trips++
			b.state = stateOpen
			b.events = append(b.events, TripEvent{
				Site: res.Site, AfterDevice: res.Index,
				Consecutive: b.consecutive, QuarantineS: b.backoff(),
			})
			return true
		}
	}
	return false
}

// Open reports whether the site is quarantined (waiting out the backoff);
// BeginProbe must precede the Record of its next device.
func (b *Breaker) Open() bool { return b.state == stateOpen }

// State names the current state ("closed", "open", "half-open") for
// status endpoints. Like every Breaker method it must be called by the
// owning goroutine (or under the owner's lock).
func (b *Breaker) State() string { return b.state.String() }

// TotalTrips returns how many times the breaker has tripped.
func (b *Breaker) TotalTrips() int { return b.trips }

// QuarantineTotalS returns the total modeled quarantine charged.
func (b *Breaker) QuarantineTotalS() float64 { return b.quarantineS }

// Events returns every trip recorded so far.
func (b *Breaker) Events() []TripEvent { return b.events }
