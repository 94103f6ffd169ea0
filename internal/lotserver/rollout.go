package lotserver

// The staged rollout controller: the service-level half of the versioned
// calibration lifecycle (internal/modelreg holds the durable state).
//
// A candidate moves through three gates, each reversible until the last:
//
//	staged    — in the registry, inert; no lot screens under it.
//	shadow    — every committed incumbent result is re-screened by the
//	            candidate off the hot path, accumulating divergence
//	            statistics; incumbent bins stay authoritative and
//	            bit-identical to a no-shadow run.
//	canary    — a deterministic fraction of NEW lots (by lot-ID hash) is
//	            pinned to the candidate; everything else stays on ACTIVE.
//	promoted  — the candidate becomes ACTIVE for all new lots.
//
// Rollback is automatic: shadow divergence out of bounds, or a drift
// alarm on a canary-pinned lot, demotes the candidate with the recorded
// evidence — running lots are untouched (they are pinned for life), and
// the demoted version cannot be re-promoted by accident.
//
// The rollout position lives in the registry's fsync'd ROLLOUT record, so
// a kill-restart resumes the same stage with the same canary pinning
// (the pick is a pure function of lot ID and fraction).

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lotrun"
	"repro/internal/modelreg"
	"repro/internal/netfloor"
)

// ErrNoRollout reports a rollout control call with no rollout in
// progress.
var ErrNoRollout = fmt.Errorf("lotserver: no rollout in progress")

// engineFor resolves one calibration version to a runnable engine,
// building and caching it (with its wire payload) on first use. Version 0
// is the base engine the server booted with.
func (s *Server) engineFor(version int) (*floor.Engine, error) {
	if version == 0 {
		return s.opt.Engine, nil
	}
	if s.opt.Registry == nil {
		return nil, fmt.Errorf("lotserver: calibration version %d needs a registry: %w",
			version, lotrun.ErrModelMismatch)
	}
	s.romu.Lock()
	if eng := s.engines[version]; eng != nil {
		s.romu.Unlock()
		return eng, nil
	}
	s.romu.Unlock()
	art, ok := s.opt.Registry.Get(version)
	if !ok {
		return nil, fmt.Errorf("lotserver: calibration version %d not in registry: %w",
			version, lotrun.ErrModelMismatch)
	}
	eng, err := art.Engine(s.opt.Engine)
	if err != nil {
		return nil, fmt.Errorf("lotserver: %v: %w", err, lotrun.ErrModelMismatch)
	}
	payload, err := modelreg.EncodeArtifact(art)
	if err != nil {
		return nil, err
	}
	s.romu.Lock()
	s.engines[version] = eng
	s.payloads[version] = payload
	s.romu.Unlock()
	return eng, nil
}

// answerModelReq serves a site's artifact fetch from the payload cache.
// An unknown version is logged and left unanswered — the site's queued
// assignment goes overdue and retries, which self-heals if the registry
// catches up.
func (s *Server) answerModelReq(st *siteStats, mc *netfloor.MsgConn, version int) error {
	s.romu.Lock()
	payload := s.payloads[version]
	s.romu.Unlock()
	if payload == nil {
		// Not cached yet (another site's lot built it, or a stale fetch).
		if _, err := s.engineFor(version); err != nil {
			s.logf("site asked for model v%d the server cannot resolve: %v", version, err)
			return nil
		}
		s.romu.Lock()
		payload = s.payloads[version]
		s.romu.Unlock()
	}
	fp := uint64(0)
	s.romu.Lock()
	if eng := s.engines[version]; eng != nil {
		fp = eng.Fingerprint()
	}
	s.romu.Unlock()
	st.update(func(st *siteStats) { st.modelSends++ })
	return mc.Write(&netfloor.Envelope{
		Type: netfloor.MsgModel, Model: version, ModelFP: fp, Artifact: payload,
	}, s.opt.IdleTimeout)
}

// canaryPick decides deterministically whether a lot ID falls in the
// canary fraction — a pure function, so a kill-restart pins the same
// lots to the same versions.
func canaryPick(lotID string, fraction float64) bool {
	h := fnv.New64a()
	h.Write([]byte(lotID))
	return float64(h.Sum64()>>11)/float64(uint64(1)<<53) < fraction
}

// pinVersion picks the calibration version for a newly admitted lot:
// the canary candidate for the canary fraction during a canary stage,
// the ACTIVE version otherwise.
func (s *Server) pinVersion(lotID string) int {
	if s.opt.Registry == nil {
		return 0
	}
	if ro := s.opt.Registry.Rollout(); ro != nil && ro.Stage == modelreg.StageCanary &&
		canaryPick(lotID, ro.Fraction) {
		return ro.Candidate
	}
	return s.opt.Registry.Active()
}

// resumeRollout rebuilds the in-memory rollout machinery from the
// registry's durable state after a restart. The divergence statistics of
// a shadow stage restart from zero — evidence is re-earned; the stage
// position and canary pinning are what must survive.
func (s *Server) resumeRollout() error {
	reg := s.opt.Registry
	if active := reg.Active(); active != 0 {
		if _, err := s.engineFor(active); err != nil {
			return fmt.Errorf("lotserver: ACTIVE calibration v%d unusable: %w", active, err)
		}
	}
	ro := reg.Rollout()
	if ro == nil {
		return nil
	}
	eng, err := s.engineFor(ro.Candidate)
	if err != nil {
		// The rollout points at a version this registry can no longer
		// rebuild (corrupt artifact record). Clear it — degrade, don't die.
		s.logf("rollout candidate v%d unusable (%v); clearing rollout", ro.Candidate, err)
		return reg.SetRollout(nil)
	}
	s.romu.Lock()
	s.shadow = modelreg.NewShadowScorer(ro.Candidate, eng, s.opt.ShadowBounds)
	s.romu.Unlock()
	s.logf("rollout resumed: candidate v%d at stage %q", ro.Candidate, ro.Stage)
	return nil
}

func (s *Server) currentShadow() *modelreg.ShadowScorer {
	s.romu.Lock()
	defer s.romu.Unlock()
	return s.shadow
}

// feedShadow enqueues one committed incumbent result for shadow scoring.
// Lots pinned to the candidate itself are excluded (the candidate cannot
// be its own incumbent), and a full queue sheds — shadow scoring is
// advisory and must never backpressure the commit path.
func (s *Server) feedShadow(l *lot, res floor.DeviceResult) {
	sc := s.currentShadow()
	if sc == nil || l.modelVersion == sc.Version() {
		return
	}
	select {
	case s.shadowQ <- shadowItem{seed: l.spec.Seed, res: res}:
	default:
		sc.Drop()
	}
}

// shadowWorker drains the shadow queue off the hot path, re-screening
// each committed device with the candidate engine and rolling the
// candidate back the moment divergence leaves bounds.
func (s *Server) shadowWorker() {
	for {
		select {
		case <-s.ctx.Done():
			return
		case it := <-s.shadowQ:
			sc := s.currentShadow()
			if sc == nil {
				continue
			}
			sc.Observe(s.ctx, it.seed, s.opt.Pool[it.res.Index], s.opt.Faults, it.res)
			if bad, reason := sc.Exceeded(); bad {
				s.rollback(sc, "shadow divergence: "+reason)
			}
		}
	}
}

// driftCandidate is the one drift response an incumbent version gets: a
// retrain in flight (version 0) or the candidate it staged, plus the
// alarms counted against it instead of retraining again.
type driftCandidate struct {
	version int
	alarms  int
}

// onDriftAlarm is the service-level drift response: an alarm on a
// canary-pinned lot is direct evidence against the candidate and rolls
// it back; any other alarm, with a Recalibrate hook configured, stages a
// fresh candidate into the registry off the hot path — the screening
// world never stops. Each incumbent version gets at most one such
// candidate until it enters a rollout or is demoted; later alarms on the
// incumbent's lots are counted against it rather than starting another
// retrain, so a drifting (or misread) process cannot storm the registry.
func (s *Server) onDriftAlarm(l *lot, a lotrun.DriftAlarm) {
	if sc := s.currentShadow(); sc != nil && l.modelVersion == sc.Version() {
		s.rollback(sc, fmt.Sprintf("drift alarm (%s) on canary lot %s at device %d",
			a.Detector, l.spec.ID, a.Device))
		return
	}
	if s.opt.Recalibrate == nil || s.opt.Registry == nil {
		return
	}
	incumbent := l.modelVersion
	s.romu.Lock()
	if dc := s.drift[incumbent]; dc != nil {
		dc.alarms++
		v, n := dc.version, dc.alarms
		s.romu.Unlock()
		if v == 0 {
			s.logf("lot %s: drift alarm (%s) at device %d counted against the retrain in flight for v%d (%d alarms)",
				l.spec.ID, a.Detector, a.Device, incumbent, n)
		} else {
			s.logf("lot %s: drift alarm (%s) at device %d counted against pending candidate v%d (%d alarms since staged)",
				l.spec.ID, a.Detector, a.Device, v, n)
		}
		return
	}
	dc := &driftCandidate{}
	s.drift[incumbent] = dc
	s.romu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		v, err := s.stageRecalibration(l, a)
		s.romu.Lock()
		defer s.romu.Unlock()
		if err != nil {
			// Free the slot: the next alarm may retry the retrain.
			if s.drift[incumbent] == dc {
				delete(s.drift, incumbent)
			}
			return
		}
		dc.version = v
		s.recals++
	}()
}

// stageRecalibration runs the Recalibrate hook for one alarm and stages
// its result. Failures are logged and returned.
func (s *Server) stageRecalibration(l *lot, a lotrun.DriftAlarm) (int, error) {
	cal, gate, err := s.opt.Recalibrate(l.spec.ID, a)
	if err != nil {
		s.logf("lot %s: recalibration after drift alarm failed: %v", l.spec.ID, err)
		return 0, err
	}
	if gate == nil {
		gate = l.eng.Gate
	}
	note := fmt.Sprintf("drift alarm (%s) on lot %s at device %d (ewma %.3f, cusum %.3f)",
		a.Detector, l.spec.ID, a.Device, a.EWMA, a.CUSUM)
	v, err := s.StageCandidate(cal, gate, note)
	if err != nil {
		s.logf("lot %s: staging recalibrated candidate failed: %v", l.spec.ID, err)
		return 0, err
	}
	s.logf("lot %s: drift alarm staged candidate v%d", l.spec.ID, v)
	return v, nil
}

// rollback demotes the candidate sc is scoring, recording its divergence
// statistics as the demotion evidence, and ends the rollout. Idempotent:
// only the first caller for a given scorer acts.
func (s *Server) rollback(sc *modelreg.ShadowScorer, reason string) {
	s.romu.Lock()
	if s.shadow != sc {
		s.romu.Unlock()
		return
	}
	s.shadow = nil
	s.rollbacks++
	s.romu.Unlock()
	stats := sc.Stats()
	if err := s.opt.Registry.Demote(sc.Version(), reason, &stats); err != nil {
		s.logf("rollback: demoting v%d: %v", sc.Version(), err)
	}
	if err := s.opt.Registry.SetRollout(nil); err != nil {
		s.logf("rollback: clearing rollout: %v", err)
	}
	s.logf("rolled back candidate v%d: %s (scored %d, disagree rate %.4f)",
		sc.Version(), reason, stats.Scored, stats.DisagreeRate)
}

// StageCandidate wraps a freshly trained calibration into an artifact on
// the server's base engine and stages it in the registry. Staging is
// inert: no lot screens under the version until a rollout begins.
func (s *Server) StageCandidate(cal *core.Calibration, gate *floor.Gate, note string) (int, error) {
	if s.opt.Registry == nil {
		return 0, fmt.Errorf("lotserver: no registry configured")
	}
	art, err := modelreg.NewArtifact(s.opt.Engine, cal, gate, note)
	if err != nil {
		return 0, err
	}
	return s.opt.Registry.Stage(art)
}

// BeginShadow starts a rollout: the staged version becomes the shadow
// candidate, scored against the incumbent on live committed devices.
func (s *Server) BeginShadow(version int) error {
	if s.opt.Registry == nil {
		return fmt.Errorf("lotserver: no registry configured")
	}
	if ro := s.opt.Registry.Rollout(); ro != nil {
		return fmt.Errorf("lotserver: rollout of v%d already in progress (stage %q)", ro.Candidate, ro.Stage)
	}
	if d, demoted := s.opt.Registry.Demoted(version); demoted {
		return fmt.Errorf("lotserver: v%d was demoted (%s) and cannot be rolled out", version, d.Reason)
	}
	eng, err := s.engineFor(version)
	if err != nil {
		return err
	}
	if err := s.opt.Registry.SetRollout(&modelreg.RolloutState{
		Candidate: version, Stage: modelreg.StageShadow,
	}); err != nil {
		return err
	}
	s.romu.Lock()
	s.shadow = modelreg.NewShadowScorer(version, eng, s.opt.ShadowBounds)
	for incumbent, dc := range s.drift {
		if dc.version == version {
			// The drift response is in the operator's hands now (and a
			// demotion only ever follows a rollout); the incumbent may
			// stage a fresh candidate on its next alarm.
			delete(s.drift, incumbent)
		}
	}
	s.romu.Unlock()
	s.logf("rollout: candidate v%d entered shadow", version)
	return nil
}

// Promote advances the rollout one stage: shadow → canary requires the
// divergence evidence to be healthy (enough samples, every bound held);
// canary → ACTIVE makes the candidate the default for all new lots and
// ends the rollout. Running lots are never touched.
func (s *Server) Promote() error {
	if s.opt.Registry == nil {
		return fmt.Errorf("lotserver: no registry configured")
	}
	ro := s.opt.Registry.Rollout()
	if ro == nil {
		return ErrNoRollout
	}
	switch ro.Stage {
	case modelreg.StageShadow:
		sc := s.currentShadow()
		if sc == nil {
			return fmt.Errorf("lotserver: rollout of v%d has no shadow scorer (rolled back?)", ro.Candidate)
		}
		if !sc.Healthy() {
			st := sc.Stats()
			if bad, reason := sc.Exceeded(); bad {
				return fmt.Errorf("lotserver: v%d cannot be promoted: %s", ro.Candidate, reason)
			}
			return fmt.Errorf("lotserver: v%d needs more shadow evidence (%d devices scored)", ro.Candidate, st.Scored)
		}
		if err := s.opt.Registry.SetRollout(&modelreg.RolloutState{
			Candidate: ro.Candidate, Stage: modelreg.StageCanary, Fraction: s.opt.CanaryFraction,
		}); err != nil {
			return err
		}
		s.logf("rollout: candidate v%d entered canary (fraction %.2f)", ro.Candidate, s.opt.CanaryFraction)
		return nil
	case modelreg.StageCanary:
		if sc := s.currentShadow(); sc != nil {
			if bad, reason := sc.Exceeded(); bad {
				return fmt.Errorf("lotserver: v%d cannot be promoted: %s", ro.Candidate, reason)
			}
		}
		if err := s.opt.Registry.SetActive(ro.Candidate); err != nil {
			return err
		}
		if err := s.opt.Registry.SetRollout(nil); err != nil {
			return err
		}
		s.romu.Lock()
		s.shadow = nil
		s.romu.Unlock()
		s.logf("rollout: candidate v%d promoted to ACTIVE", ro.Candidate)
		return nil
	default:
		return fmt.Errorf("lotserver: rollout of v%d in unknown stage %q", ro.Candidate, ro.Stage)
	}
}

// DemoteCandidate manually rolls back the rollout in progress.
func (s *Server) DemoteCandidate(reason string) error {
	if s.opt.Registry == nil {
		return fmt.Errorf("lotserver: no registry configured")
	}
	ro := s.opt.Registry.Rollout()
	if ro == nil {
		return ErrNoRollout
	}
	if reason == "" {
		reason = "operator demotion"
	}
	if sc := s.currentShadow(); sc != nil {
		s.rollback(sc, reason)
		return nil
	}
	// No scorer (e.g. lost to a restart race): demote directly.
	if err := s.opt.Registry.Demote(ro.Candidate, reason, nil); err != nil {
		return err
	}
	s.romu.Lock()
	s.rollbacks++
	s.romu.Unlock()
	return s.opt.Registry.SetRollout(nil)
}

// RolloutStatus is the operator-facing rollout snapshot (part of
// /statusz and the sigtest -server status output).
type RolloutStatus struct {
	// Enabled reports whether a registry is configured at all.
	Enabled bool `json:"enabled"`
	// Active is the version new non-canary lots pin (0 = base model).
	Active int `json:"active"`
	// Candidate and Stage describe the rollout in progress (zero/empty
	// when idle); CanaryFraction the share of new lots pinned to the
	// candidate during canary.
	Candidate      int     `json:"candidate,omitempty"`
	Stage          string  `json:"stage,omitempty"`
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	// Shadow is the live divergence evidence for the candidate.
	Shadow *modelreg.DivergenceStats `json:"shadow,omitempty"`
	// Versions lists every staged version; Demoted the versions demoted
	// with evidence.
	Versions []int `json:"versions,omitempty"`
	Demoted  []int `json:"demoted,omitempty"`
	// Recalibrations counts candidates staged from drift alarms;
	// Rollbacks the automatic (or operator) demotions since boot.
	Recalibrations int `json:"recalibrations,omitempty"`
	Rollbacks      int `json:"rollbacks,omitempty"`
	// DriftPending lists the drift responses waiting for an operator
	// rollout, at most one per incumbent version.
	DriftPending []DriftPending `json:"drift_pending,omitempty"`
}

// DriftPending is one incumbent version's drift-staged candidate and the
// later drift alarms counted against it instead of retraining.
type DriftPending struct {
	Incumbent int `json:"incumbent"`
	// Candidate is the staged version (0 while its retrain is in flight).
	Candidate int `json:"candidate"`
	Alarms    int `json:"alarms"`
}

// RolloutStatus snapshots the versioned-calibration lifecycle.
func (s *Server) RolloutStatus() RolloutStatus {
	if s.opt.Registry == nil {
		return RolloutStatus{}
	}
	rs := RolloutStatus{
		Enabled:  true,
		Active:   s.opt.Registry.Active(),
		Versions: s.opt.Registry.Versions(),
	}
	for _, d := range s.opt.Registry.Demotions() {
		rs.Demoted = append(rs.Demoted, d.Version)
	}
	sort.Ints(rs.Demoted)
	if ro := s.opt.Registry.Rollout(); ro != nil {
		rs.Candidate, rs.Stage, rs.CanaryFraction = ro.Candidate, ro.Stage, ro.Fraction
	}
	if sc := s.currentShadow(); sc != nil {
		st := sc.Stats()
		rs.Shadow = &st
	}
	s.romu.Lock()
	rs.Recalibrations, rs.Rollbacks = s.recals, s.rollbacks
	for incumbent, dc := range s.drift {
		rs.DriftPending = append(rs.DriftPending,
			DriftPending{Incumbent: incumbent, Candidate: dc.version, Alarms: dc.alarms})
	}
	s.romu.Unlock()
	sort.Slice(rs.DriftPending, func(i, j int) bool {
		return rs.DriftPending[i].Incumbent < rs.DriftPending[j].Incumbent
	})
	return rs
}
