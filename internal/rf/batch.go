package rf

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// This file implements the batched acquisition kernel. Profiling the
// production screen shows ~90% of a device's wall time inside the envelope
// simulation, almost all of it in Mul/zoneAt — and most of THAT work is
// either identical for every device on the load board (stimulus evaluation,
// upconversion, LO synthesis and powers) or structurally zero (zone-algebra
// products where one factor's zone never received a term). BatchRunner
// exploits both:
//
//   - Prepare computes everything device-independent once per stimulus using
//     the reference implementations (EnvFromBaseband, EnvTone, the up-mixer's
//     ProcessEnvelope, powers), so the shared state carries the reference
//     bits by construction.
//   - RunDevices replays only the device-dependent tail — DUT nonlinearity,
//     contact/LO/capture faults, downconversion — through occupancy-tracked
//     kernels that skip structurally-zero zones and compute only the zones
//     the digitizer can see (BasebandReal reads zone 0 of the downmix, so
//     DUT-output powers are evaluated just far enough to feed it).
//
// Bit-identity contract: for every contributing (nonzero) term the kernels
// perform the same floating-point operations in the same order as the
// reference chain, so captured samples agree bit for bit except possibly in
// the sign of zeros (a skipped structurally-zero accumulation can flip
// -0.0 to +0.0). Every signature consumer takes magnitudes before comparing
// or regressing, so signatures, gate verdicts and predictions are
// Float64bits-identical to the serial path. Tests compare captures with ==
// (which treats -0 and +0 as equal) and signatures with Float64bits.
type BatchRunner struct {
	lb     *Loadboard
	fir    *dsp.FIR
	fs     float64
	os     int
	settle int
	n      int
	mz     int

	// InterleaveTile is the device-group width of one SoA pass of the
	// interleaved kernel (RunDevices): 0 means the cache-sized default,
	// 1 disables interleaving (every device takes the serial tail).
	InterleaveTile int

	// Shared per-stimulus state (Prepare).
	stim      StimFunc
	rfInSig   *EnvSignal
	rfIn      *envBuf
	inPowSigs []*EnvSignal // rfIn^1, rfIn^2, ... grown lazily
	inPows    []*envBuf
	d1        []complex128 // carrier-zone derivative of rfIn, grown lazily
	loClean   *loSet

	// Per-device scratch, reused across devices and RunDevices calls.
	ampBuf   *envBuf
	chainBuf *envBuf
	nlBuf    *envBuf
	y2Buf    *envBuf
	y3Buf    *envBuf
	powBufs  []*envBuf // per-device DUT-input powers (chain stages past the first)
	powFor   *envBuf
	powMax   int
	prod     []complex128
	down0    []complex128
	base     []float64

	// Interleaved-kernel scratch (interleave.go).
	il ilState
}

// envBuf is an occupancy-tracked multi-zone envelope buffer. alloc mirrors
// the MaxZone the reference signal would have (it governs the index ranges
// of zone products); occ[k] reports whether zone k may hold nonzero samples.
// Zones with occ[k] == false are structurally zero in the reference run and
// are never read.
type envBuf struct {
	fs    float64
	n     int
	alloc int
	z     [][]complex128
	occ   []bool
}

func (b *envBuf) prep(fs float64, n, alloc int) *envBuf {
	b.fs, b.n, b.alloc = fs, n, alloc
	if cap(b.z) < alloc+1 {
		nz := make([][]complex128, alloc+1)
		copy(nz, b.z)
		b.z = nz
	}
	b.z = b.z[:alloc+1]
	if cap(b.occ) < alloc+1 {
		b.occ = make([]bool, alloc+1)
	}
	b.occ = b.occ[:alloc+1]
	for k := range b.occ {
		b.occ[k] = false
	}
	return b
}

// zone returns zone k ready for accumulation: zeroed on first touch per
// device, preserved across touches so linear writes and nonlinear adds
// compose the way the reference AddScaled sequence does.
func (b *envBuf) zone(k int) []complex128 {
	if b.z[k] == nil || len(b.z[k]) != b.n {
		b.z[k] = make([]complex128, b.n)
		b.occ[k] = true
		return b.z[k]
	}
	if !b.occ[k] {
		zk := b.z[k]
		for i := range zk {
			zk[i] = 0
		}
		b.occ[k] = true
	}
	return b.z[k]
}

// wrapSignal views an EnvSignal as an envBuf, scanning each zone once for
// occupancy (a zone of exact zeros — including -0 — is structurally inert:
// the reference would only ever accumulate signed zeros from it).
func wrapSignal(s *EnvSignal) *envBuf {
	b := &envBuf{fs: s.Fs, n: s.N, alloc: s.MaxZone, z: s.Z, occ: make([]bool, s.MaxZone+1)}
	for k, zk := range s.Z {
		for _, v := range zk {
			if v != 0 {
				b.occ[k] = true
				break
			}
		}
	}
	return b
}

func (b *envBuf) maxOcc() int {
	for k := b.alloc; k >= 0; k-- {
		if b.occ[k] {
			return k
		}
	}
	return -1
}

// loSet is one downconversion LO with its zone-algebra powers, as the
// reference down-mixer would compute them.
type loSet struct {
	sig    *EnvSignal
	pows   []*envBuf
	maxOcc [3]int
}

// NewBatchRunner validates the board and designs the shared channel filter.
// The runner owns per-device scratch, so it is not safe for concurrent use:
// give each worker its own runner. The Loadboard must not be mutated while
// the runner is in use.
func NewBatchRunner(lb *Loadboard) (*BatchRunner, error) {
	if err := lb.validate(); err != nil {
		return nil, err
	}
	fir, err := lb.finalFilter()
	if err != nil {
		return nil, err
	}
	fs := lb.envFs()
	os := int(math.Round(fs / lb.DigitizerFs))
	settle := lb.settleN()
	n := (lb.CaptureN+settle)*os + fir.GroupDelaySamples() + os
	mz := lb.maxZone()
	return &BatchRunner{
		lb: lb, fir: fir, fs: fs, os: os, settle: settle, n: n, mz: mz,
		ampBuf: &envBuf{}, chainBuf: &envBuf{}, nlBuf: &envBuf{},
		y2Buf: &envBuf{}, y3Buf: &envBuf{},
		prod: make([]complex128, n), down0: make([]complex128, n),
		base: make([]float64, n),
	}, nil
}

// Prepare computes the device-independent front half of the acquisition for
// one stimulus: baseband evaluation, upconversion, the clean downconversion
// LO and its powers. Call it once per stimulus before RunDevices; the
// stimulus function must be pure (every production stimulus is).
func (br *BatchRunner) Prepare(stim StimFunc) {
	br.stim = stim
	bb := make([]float64, br.n)
	for i := range bb {
		bb[i] = stim(float64(i) / br.fs)
	}
	x := EnvFromBaseband(bb, br.fs, br.lb.CarrierHz, br.mz)
	lo1 := EnvTone(br.fs, br.lb.CarrierHz, br.n, br.mz, 1, br.lb.CarrierAmp, 0, 0)
	br.rfInSig = br.lb.UpMixer.ProcessEnvelope(x, lo1, br.mz)
	br.rfIn = wrapSignal(br.rfInSig)
	br.inPowSigs = nil
	br.inPows = nil
	br.d1 = nil
	br.loClean = br.buildLoSet(br.lb.CarrierAmp, br.lb.PathPhase, br.mz)
	// The interleaved kernel's plans are compiled against the clean LO set
	// above; a new stimulus invalidates them.
	br.il.plans = nil
}

func (br *BatchRunner) buildLoSet(amp, phase float64, yAlloc int) *loSet {
	sig := EnvTone(br.fs, br.lb.CarrierHz, br.n, br.mz, 1, amp, br.lb.LOOffsetHz, phase)
	ps := powers(sig, 3, br.mz+yAlloc*3)
	ls := &loSet{sig: sig}
	for qi, p := range ps {
		buf := wrapSignal(p)
		ls.pows = append(ls.pows, buf)
		ls.maxOcc[qi] = buf.maxOcc()
	}
	return ls
}

// loCap is the zone cap the reference powers() would use for the LO powers
// given the DUT output's MaxZone.
func (br *BatchRunner) loCap(yAlloc int) int {
	return min(br.mz+yAlloc*3, 3*br.mz)
}

func (br *BatchRunner) loFor(flt *InsertionFaults, yAlloc int) *loSet {
	amp := flt.loAmp(br.lb.CarrierAmp)
	phase := flt.loPhase(br.lb.PathPhase)
	if amp == br.lb.CarrierAmp && phase == br.lb.PathPhase && br.loCap(yAlloc) == br.loCap(br.mz) {
		return br.loClean
	}
	return br.buildLoSet(amp, phase, yAlloc)
}

func (br *BatchRunner) sharedInPow(order int) *envBuf {
	if len(br.inPowSigs) == 0 {
		br.inPowSigs = append(br.inPowSigs, br.rfInSig)
		br.inPows = append(br.inPows, br.rfIn)
	}
	for len(br.inPowSigs) < order {
		next := Mul(br.inPowSigs[len(br.inPowSigs)-1], br.rfInSig, br.mz)
		br.inPowSigs = append(br.inPowSigs, next)
		br.inPows = append(br.inPows, wrapSignal(next))
	}
	return br.inPows[order-1]
}

func (br *BatchRunner) sharedD1() []complex128 {
	if br.d1 == nil {
		br.d1 = br.rfInSig.DifferentiateZone(1)
	}
	return br.d1
}

// inPow returns in^order for the per-device power chain used by chain
// stages whose input is itself device-dependent.
func (br *BatchRunner) inPow(in *envBuf, order int) *envBuf {
	if order == 1 {
		return in
	}
	if br.powFor != in {
		br.powFor = in
		br.powMax = 1
	}
	for br.powMax < order {
		idx := br.powMax - 1 // power (powMax+1) lives at powBufs[powMax-1]
		for len(br.powBufs) <= idx {
			br.powBufs = append(br.powBufs, &envBuf{})
		}
		prev := in
		if br.powMax > 1 {
			prev = br.powBufs[br.powMax-2]
		}
		out := br.powBufs[idx].prep(br.fs, br.n, br.mz)
		mulOccInto(out, prev, in, br.mz)
		br.powMax++
	}
	return br.powBufs[order-2]
}

// mulOccInto computes zones 0..computeMax of the reference Mul(a, b,
// out.alloc), skipping (i, j) pairs where either factor zone is
// structurally zero. Term order — i ascending, j = m-i bounds-checked
// against b's allocated MaxZone, accumulation (0.5*a_i)*b_j — matches Mul
// exactly, so occupied output zones carry the reference bits.
func mulOccInto(out *envBuf, a, b *envBuf, computeMax int) {
	if computeMax > out.alloc {
		computeMax = out.alloc
	}
	for m := 0; m <= computeMax; m++ {
		var zm []complex128
		for i := -a.alloc; i <= a.alloc; i++ {
			j := m - i
			if j < -b.alloc || j > b.alloc {
				continue
			}
			ai, bj := i, j
			if ai < 0 {
				ai = -ai
			}
			if bj < 0 {
				bj = -bj
			}
			if !a.occ[ai] || !b.occ[bj] {
				continue
			}
			if zm == nil {
				zm = out.zone(m)
			}
			za, zb := a.z[ai], b.z[bj]
			switch {
			case i >= 0 && j >= 0:
				for t := range zm {
					zm[t] += 0.5 * za[t] * zb[t]
				}
			case i < 0 && j >= 0:
				for t := range zm {
					zm[t] += 0.5 * cmplx.Conj(za[t]) * zb[t]
				}
			case j < 0 && i >= 0:
				for t := range zm {
					zm[t] += 0.5 * za[t] * cmplx.Conj(zb[t])
				}
			default:
				for t := range zm {
					zm[t] += 0.5 * cmplx.Conj(za[t]) * cmplx.Conj(zb[t])
				}
			}
		}
	}
}

// runAmp replays Amplifier.ProcessEnvelope into out. sharedIn marks in as
// the batch-shared upconverted signal, unlocking the precomputed powers and
// carrier derivative.
func (br *BatchRunner) runAmp(a *Amplifier, in *envBuf, out *envBuf, sharedIn bool) {
	out.prep(br.fs, br.n, br.mz)
	c1 := a.Poly.Gain()
	kmax := br.mz
	if in.alloc < kmax {
		kmax = in.alloc
	}
	for k := 0; k <= kmax; k++ {
		if !in.occ[k] {
			continue
		}
		scale := complex(c1*a.zoneScale(k), 0)
		zm := out.zone(k)
		src := in.z[k]
		for t := range zm {
			zm[t] = scale * src[t]
		}
	}
	if a.CarrierSlope != 0 && in.alloc >= 1 && br.mz >= 1 && in.occ[1] {
		var d []complex128
		if sharedIn {
			d = br.sharedD1()
		} else {
			d = diffZone(in.z[1], in.fs)
		}
		f := complex(c1*a.zoneScale(1), 0) * a.CarrierSlope / complex(0, 1)
		zm := out.zone(1)
		for t := range zm {
			zm[t] += f * d[t]
		}
	}
	if len(a.Poly.C) > 1 {
		maxK := 0
		for k := 1; k < len(a.Poly.C); k++ {
			if a.Poly.C[k] != 0 {
				maxK = k
			}
		}
		if maxK > 0 {
			nl := br.nlBuf.prep(br.fs, br.n, br.mz)
			for k := 1; k <= maxK; k++ {
				var pow *envBuf
				if sharedIn {
					pow = br.sharedInPow(k + 1)
				} else {
					pow = br.inPow(in, k+1)
				}
				if a.Poly.C[k] == 0 {
					continue
				}
				cc := complex(a.Poly.C[k], 0)
				zmax := br.mz
				if pow.alloc < zmax {
					zmax = pow.alloc
				}
				for z := 0; z <= zmax; z++ {
					if !pow.occ[z] {
						continue
					}
					zm := nl.zone(z)
					src := pow.z[z]
					for t := range zm {
						zm[t] += cc * src[t]
					}
				}
			}
			one := complex(1.0, 0)
			for z := 0; z <= br.mz; z++ {
				if !nl.occ[z] {
					continue
				}
				zm := out.zone(z)
				src := nl.z[z]
				for t := range zm {
					zm[t] += one * src[t]
				}
			}
		}
	}
}

// diffZone replicates EnvSignal.DifferentiateZone on one zone slice.
func diffZone(src []complex128, fs float64) []complex128 {
	n := len(src)
	out := make([]complex128, n)
	dt := 1 / fs
	for t := 0; t < n; t++ {
		var d complex128
		switch {
		case t == 0:
			d = (src[1] - src[0]) / complex(dt, 0)
		case t == n-1:
			d = (src[t] - src[t-1]) / complex(dt, 0)
		default:
			d = (src[t+1] - src[t-1]) / complex(2*dt, 0)
		}
		out[t] = d / complex(2*math.Pi, 0)
	}
	return out
}

// scaleTime replays EnvSignal.ScaleTime over the occupied zones, calling g
// once per sample in time order like the reference.
func scaleTime(y *envBuf, g func(t float64) float64) {
	var zones [][]complex128
	for k := 0; k <= y.alloc; k++ {
		if y.occ[k] {
			zones = append(zones, y.z[k])
		}
	}
	for t := 0; t < y.n; t++ {
		c := complex(g(float64(t)/y.fs), 0)
		for _, zk := range zones {
			zk[t] *= c
		}
	}
}

// front replays the DUT half of the chain. For Amplifier/Chain devices the
// final envelope lands in dst (the interleaved kernel's per-slot buffer);
// intermediate chain stages use the shared scratch. Generic DUTs go
// through their own ProcessEnvelope and return the wrapped signal for the
// mixer compatibility check.
func (br *BatchRunner) front(dut EnvelopeDevice, dst *envBuf) (*envBuf, *EnvSignal) {
	switch d := dut.(type) {
	case *Amplifier:
		br.runAmp(d, br.rfIn, dst, true)
		return dst, nil
	case *Chain:
		if len(d.Stages) == 0 {
			ySig := d.ProcessEnvelope(br.rfInSig.Clone(), br.mz)
			return wrapSignal(ySig), ySig
		}
		in := br.rfIn
		for si, st := range d.Stages {
			out := br.ampBuf
			if in == br.ampBuf {
				out = br.chainBuf
			}
			if si == len(d.Stages)-1 {
				out = dst
			}
			br.runAmp(st, in, out, si == 0)
			in = out
		}
		return in, nil
	default:
		ySig := dut.ProcessEnvelope(br.rfInSig.Clone(), br.mz)
		return wrapSignal(ySig), ySig
	}
}

// tail completes one device's capture from its post-contact envelope: LO
// resolution, downmix, filter, decimate, capture-transform fault. This is
// the per-device (serial) tail; the interleaved kernel replaces it for
// occupancy groups of two or more devices.
func (br *BatchRunner) tail(y *envBuf, ySig *EnvSignal, flt *InsertionFaults) []float64 {
	lo := br.loFor(flt, y.alloc)
	if ySig != nil {
		if err := ySig.compatible(lo.sig); err != nil {
			panic(fmt.Errorf("rf: mixer inputs: %w", err))
		}
	}
	br.downmixZone0(y, lo)

	for t := range br.base {
		br.base[t] = real(br.down0[t]) / 2
	}
	filtered := br.fir.FilterCompensated(br.base)
	capture := strideDecimate(filtered, br.os, br.settle*br.os, br.lb.CaptureN)
	return br.applyCaptureTransform(capture, flt)
}

// applyCaptureTransform applies the capture-transform fault hook under the
// CaptureN length contract.
func (br *BatchRunner) applyCaptureTransform(capture []float64, flt *InsertionFaults) []float64 {
	if flt != nil && flt.CaptureTransform != nil {
		capture = flt.CaptureTransform(capture)
		if len(capture) != br.lb.CaptureN {
			panic(fmt.Sprintf("rf: capture transform changed length %d -> %d (CaptureN contract)",
				br.lb.CaptureN, len(capture)))
		}
	}
	return capture
}

// downmixZone0 accumulates zone 0 of the reference down-mixer output into
// br.down0. Only the zones that can reach zone 0 through an occupied LO
// partner are evaluated: the DUT-output square is taken just far enough to
// seed the cube, the cube just far enough to pair with the occupied LO
// zones, and each (rf^p, lo^q) product contributes zone 0 alone.
func (br *BatchRunner) downmixZone0(y *envBuf, lo *loSet) {
	m := br.lb.DownMixer
	capY := min(br.mz+lo.sig.MaxZone*3, 3*y.alloc)

	need2, need3 := -1, -1
	for q := 0; q < 3; q++ {
		if m.K[2][q] != 0 && lo.maxOcc[q] > need3 {
			need3 = lo.maxOcc[q]
		}
		if m.K[1][q] != 0 && lo.maxOcc[q] > need2 {
			need2 = lo.maxOcc[q]
		}
	}
	if need3 > capY {
		need3 = capY
	}
	if need3 >= 0 {
		if v := need3 + y.alloc; v > need2 {
			need2 = v
		}
	}
	if need2 > capY {
		need2 = capY
	}

	var y2, y3 *envBuf
	if need2 >= 0 {
		y2 = br.y2Buf.prep(br.fs, br.n, capY)
		mulOccInto(y2, y, y, need2)
	}
	if need3 >= 0 {
		y3 = br.y3Buf.prep(br.fs, br.n, capY)
		mulOccInto(y3, y2, y, need3)
	}

	down0 := br.down0
	for t := range down0 {
		down0[t] = 0
	}
	yPows := [3]*envBuf{y, y2, y3}
	for p := 1; p <= 3; p++ {
		for q := 1; q <= 3; q++ {
			k := m.K[p-1][q-1]
			if k == 0 {
				continue
			}
			yp, lq := yPows[p-1], lo.pows[q-1]
			if yp == nil {
				continue // no occupied LO partner existed when sizing the powers
			}
			prod := br.prod
			touched := false
			for i := -yp.alloc; i <= yp.alloc; i++ {
				j := -i
				if j < -lq.alloc || j > lq.alloc {
					continue
				}
				ai, bj := i, j
				if ai < 0 {
					ai = -ai
				}
				if bj < 0 {
					bj = -bj
				}
				if !yp.occ[ai] || !lq.occ[bj] {
					continue
				}
				if !touched {
					for t := range prod {
						prod[t] = 0
					}
					touched = true
				}
				za, zb := yp.z[ai], lq.z[bj]
				switch {
				case i >= 0 && j >= 0:
					for t := range prod {
						prod[t] += 0.5 * za[t] * zb[t]
					}
				case i < 0 && j >= 0:
					for t := range prod {
						prod[t] += 0.5 * cmplx.Conj(za[t]) * zb[t]
					}
				case j < 0 && i >= 0:
					for t := range prod {
						prod[t] += 0.5 * za[t] * cmplx.Conj(zb[t])
					}
				default:
					for t := range prod {
						prod[t] += 0.5 * cmplx.Conj(za[t]) * cmplx.Conj(zb[t])
					}
				}
			}
			if touched {
				cc := complex(k, 0)
				for t := range down0 {
					down0[t] += cc * prod[t]
				}
			}
		}
	}
	if m.RFFeedthrough != 0 && y.occ[0] {
		cc := complex(m.RFFeedthrough, 0)
		src := y.z[0]
		for t := range down0 {
			down0[t] += cc * src[t]
		}
	}
	if m.LOFeedthrough != 0 && lo.pows[0].occ[0] {
		cc := complex(m.LOFeedthrough, 0)
		src := lo.pows[0].z[0]
		for t := range down0 {
			down0[t] += cc * src[t]
		}
	}
}
