// Package lotrun holds the supervision primitives every lot run is built
// from; the run loop that composes them is internal/lotserver's Server,
// which screens one lot or many:
//
//   - a crash-safe journal: every completed device is committed to an
//     fsync'd, CRC-enveloped JSON-lines journal, and replay restores the
//     committed devices of an interrupted lot — idempotent under the same
//     lot seed because each device's randomness derives from (lot seed,
//     index) alone;
//   - per-site circuit breakers: a site producing consecutive gated-out
//     insertions (a degrading contactor, a drifted board) is quarantined
//     (open), re-probed after backoff (half-open), and its work drains to
//     the healthy sites meanwhile;
//   - a drift watchdog: EWMA and CUSUM charts on the accepted-capture
//     gate distances, standardized against the gate's training statistics,
//     raise a recalibration alarm when the process drifts.
package lotrun

import "errors"

// ErrModelMismatch reports a journal written under a different calibration
// model than the one trying to resume it — an upgrade problem, not a
// transport or corruption problem. Callers distinguish it (errors.Is) from
// retryable failures and react by rebuilding the journal's pinned engine
// version instead of retrying blindly.
var ErrModelMismatch = errors.New("lotrun: calibration model mismatch")
