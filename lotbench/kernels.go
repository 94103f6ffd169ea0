package main

// Per-layer timing from outside the program: the engineering phase from
// rig.Build's progress lines, and the screening kernels by calling each
// layer's public functions on the batches the traced server dispatched.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lna"
	"repro/internal/modelreg"
	"repro/internal/netfloor"
	"repro/internal/rf"
	"repro/internal/rig"
)

// rigLayer is the engineering phase split into its three costly stages.
type rigLayer struct {
	optimizeS, trainS, calibrateS float64
}

// rigStages are the progress lines rig.Build logs around its costly
// stages: the first two bracket the stimulus GA, the last two training
// acquisition plus calibration.
var rigStages = [4]string{"[1/4]", "objective trace", "[2/4]", "regression per spec"}

// buildTimed runs rig.Build and times its stages from the progress lines
// it logs. The second span is split by acquiring a training set of the
// same size once more, from the production lot, and timing that call.
func buildTimed(p rig.Params) (*rig.Rig, rigLayer, error) {
	var (
		l  rigLayer
		at [len(rigStages)]time.Time
	)
	r, err := rig.Build(p, func(format string, _ ...any) {
		for i, s := range rigStages {
			if strings.Contains(format, s) {
				at[i] = time.Now()
			}
		}
	})
	if err != nil {
		return nil, l, err
	}
	for i, t := range at {
		if t.IsZero() {
			return nil, l, fmt.Errorf("rig.Build logged no %q line to time its stages by", rigStages[i])
		}
	}
	if len(r.Lot) < len(r.Train) {
		return nil, l, fmt.Errorf("production lot of %d devices cannot stand in for %d training devices", len(r.Lot), len(r.Train))
	}
	t0 := time.Now()
	if _, err := core.AcquireTrainingSetSeeded(p.Seed, r.Cfg, r.Stim, r.Lot[:len(r.Train)],
		func(d *core.Device) lna.Specs { return d.Specs }, p.Workers); err != nil {
		return nil, l, err
	}
	l.trainS = time.Since(t0).Seconds()
	l.optimizeS = at[1].Sub(at[0]).Seconds()
	l.calibrateS = at[3].Sub(at[2]).Seconds() - l.trainS
	return r, l, nil
}

// kernelLayer is the screening kernels' cost per device on the traced
// batches.
type kernelLayer struct {
	captureUS, signatureUS, predictUS, gateUS, screenUS float64
	insertions                                          float64
	devices, batches                                    int
	// results keeps each replayed device's ScreenBatch outcome, for the
	// shadow and wire replays.
	results []replayed
}

type replayed struct {
	seed int64
	res  floor.DeviceResult
}

// replayKernels replays up to maxBatches of the traced dispatch bursts,
// evenly spaced, through each kernel stage's public call: the first
// insertion's capture (BatchAcquirer.CaptureTimeBatch), its signatures
// (BatchAcquirer.Signatures), gate verdicts (Gate.Classify) and batched
// prediction (Calibration.PredictBatch), then the whole retest loop
// (Engine.ScreenBatch).
func replayKernels(r *rig.Rig, bs []burst, seeds map[string]int64, maxBatches int) (kernelLayer, error) {
	var k kernelLayer
	eng := r.Engine
	ba, err := core.NewBatchAcquirer(eng.Cfg, eng.Stim)
	if err != nil {
		return k, err
	}
	var ps core.PredictScratch
	windowS := eng.Cfg.StimulusDuration()
	stride := 1
	if len(bs) > maxBatches {
		stride = len(bs) / maxBatches
	}
	var capT, sigT, gateT, predT, scrT time.Duration
	predicted := 0
	for bi := 0; bi < len(bs) && k.batches < maxBatches; bi += stride {
		b := bs[bi]
		seed := seeds[b.lot]
		n := len(b.devs)
		in := floorBatch(r, seed, b.devs)
		duts := make([]rf.EnvelopeDevice, n)
		rngs := make([]*rand.Rand, n)
		flts := make([]*rf.InsertionFaults, n)
		caps := make([]core.BatchCapture, n)
		for i, bd := range in {
			// The first insertion exactly as ScreenBatch draws it: the
			// fault draw, then the capture, from the device's own stream.
			rngs[i] = rand.New(rand.NewSource(bd.Seed))
			_, flts[i] = r.Faults.Draw(rngs[i], windowS)
			duts[i] = bd.Device.Behavioral
		}
		t0 := time.Now()
		ba.CaptureTimeBatch(duts, rngs, flts, caps)
		capT += time.Since(t0)
		var recs [][]float64
		for _, c := range caps {
			if c.Panic == nil && c.Err == nil {
				recs = append(recs, c.Rec)
			}
		}
		if len(recs) > 0 {
			t1 := time.Now()
			sigs := ba.Signatures(recs)
			sigT += time.Since(t1)
			t2 := time.Now()
			for _, sig := range sigs {
				eng.Gate.Classify(sig)
			}
			gateT += time.Since(t2)
			t3 := time.Now()
			X := ps.StackSignatures(sigs)
			eng.Cal.PredictBatch(X, make([]lna.Specs, len(sigs)), &ps)
			predT += time.Since(t3)
			predicted += len(sigs)
		}
		t4 := time.Now()
		out := eng.ScreenBatch(context.Background(), in, r.Faults)
		scrT += time.Since(t4)
		for _, res := range out {
			k.insertions += float64(res.Insertions)
			k.results = append(k.results, replayed{seed: seed, res: res})
		}
		k.devices += n
		k.batches++
	}
	if k.devices == 0 {
		return k, fmt.Errorf("no dispatched batch to replay")
	}
	perDev := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	k.captureUS = perDev(capT, k.devices)
	k.signatureUS = perDev(sigT, predicted)
	k.gateUS = perDev(gateT, predicted)
	k.predictUS = perDev(predT, predicted)
	k.screenUS = perDev(scrT, k.devices)
	k.insertions /= float64(k.devices)
	return k, nil
}

func floorBatch(r *rig.Rig, seed int64, devs []int) []floor.BatchDevice {
	in := make([]floor.BatchDevice, len(devs))
	for i, idx := range devs {
		in[i] = floor.BatchDevice{Index: idx, Device: r.Lot[idx], Seed: core.DeviceSeed(seed, idx)}
	}
	return in
}

// shadowObserveMS times ShadowScorer.Observe — the candidate's serial
// re-screen of one committed device — on up to n replayed devices.
func shadowObserveMS(r *rig.Rig, devs []replayed, n int) float64 {
	sc := modelreg.NewShadowScorer(1, r.Engine, modelreg.Bounds{MinSamples: 1 << 30})
	if n > len(devs) {
		n = len(devs)
	}
	stride := len(devs) / n
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d := devs[i*stride]
		sc.Observe(context.Background(), d.seed, r.Lot[d.res.Index], r.Faults, d.res)
	}
	return ms(time.Since(t0)) / float64(n)
}

// frameRoundtripUS times one 16-device batch's results crossing the site
// protocol's framing: sixteen result envelopes through MsgConn.Write on
// one end of a net.Pipe and MsgConn.Read on the other.
func frameRoundtripUS(devs []replayed, reps int) (float64, error) {
	const batch = 16
	envs := make([]*netfloor.Envelope, batch)
	for i := range envs {
		d := devs[i%len(devs)]
		res := d.res
		envs[i] = &netfloor.Envelope{Type: netfloor.MsgResult, Seq: 1, Device: res.Index,
			Result: &res, Seed: d.seed, Lot: "frame-bench"}
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wa, rb := netfloor.NewMsgConn(a), netfloor.NewMsgConn(b)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < reps*batch; i++ {
			if _, err := rb.Read(0); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	t0 := time.Now()
	for i := 0; i < reps*batch; i++ {
		if err := wa.Write(envs[i%batch], 0); err != nil {
			return 0, err
		}
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps), nil
}
