package rf

import "fmt"

// This file implements the device-interleaved (structure-of-arrays) form of
// the batched envelope tail. The serial tail replays one device's
// nonlinearity / downmix tail through per-device []complex128 zone
// buffers; profiling shows the batched screen then spends over half of
// every device's wall time re-walking the same zone-pair structure —
// occupancy checks, (i, j) index arithmetic, conjugate-case dispatch — that
// every other clean device in the batch walks identically. RunDevices amortizes that structure across the
// batch:
//
//   - Devices are grouped by occupancy signature (planKey): the set of
//     structurally nonzero zones of the DUT output, which together with the
//     shared clean LO fully determines every zone-pair term of the downmix.
//     Each group compiles one groupPlan — the exact term list downmixZone0
//     would discover per device — and replays it over the whole group.
//   - Within a group, the K devices' zones are packed into deinterleaved
//     re/im float64 planes laid out [zone][sample*K + device]. Every plan
//     term then becomes one contiguous multiply-accumulate pass with the
//     device index innermost, so the per-term bookkeeping is paid once per
//     tile instead of once per device.
//   - Only the real part of the downmix zone 0 feeds the digitizer
//     (base[t] = real(down0[t])/2), and the real accumulators of the final
//     pair-product stage never read the imaginary accumulators, so the pair
//     stage computes real planes only — exactly half the reference flops
//     with an identical real dataflow.
//   - The channel FIR + decimation only ever reads CaptureN of the filtered
//     samples (one per os-stride past the settle region); the tile filter
//     evaluates exactly those taps-by-CaptureN dot products and skips the
//     ~85% of filter outputs the decimator would discard. The tap order and
//     the j >= 0 boundary handling match dsp.FIR.Filter term for term.
//
// Bit-identity: interleaving reorders nothing within a device — every
// surviving term is applied to a device's accumulator in exactly the serial
// order, with the same (0.5*a)*b association — so captures agree with the
// serial path bit for bit under the same signed-zero tolerance batch.go
// documents (the SoA kernels compute 0.5*re and 0.5*im directly where the
// serial complex multiply computes 0.5*re - 0*im, which differs only in the
// sign of exact zeros for finite data; every consumer takes magnitudes or
// compares with ==). Groups of size one, devices with LO faults or custom
// occupancy beyond 63 zones, and any tile that panics mid-flight fall back
// to the serial tail per device.
//
// RunDevices is not safe for concurrent use (it shares the runner's
// scratch); give each worker its own runner.

// DeviceRun is one slot of a RunDevices call. The runner writes the capture
// into Capture (reusing its backing array when the capacity allows), or
// records a per-device error / recovered panic. Exactly one of Capture, Err,
// Panic is meaningful per run: check Panic, then Err, then use Capture.
type DeviceRun struct {
	DUT     EnvelopeDevice
	Flt     *InsertionFaults
	Capture []float64
	Err     error
	Panic   any
}

// Tail-dispatch modes for one device after its front half ran.
const (
	tailDone    = iota // capture, error or panic already recorded
	tailSerial         // per-device serial tail (faulted LO, exotic occupancy)
	tailGrouped        // shares a groupPlan with its occupancy group
)

// planKey is the occupancy signature of a DUT output: allocated MaxZone plus
// a bitmask of structurally nonzero zones. Together with the shared clean LO
// it determines every term of the downmix, so devices with equal keys can
// share one compiled plan.
type planKey struct {
	alloc int
	occ   uint64
}

// zoneTerm is one surviving (i, j) zone-pair product: multiply zone az of
// the left factor (conjugated when conjA) by zone bz of the right factor
// (conjugated when conjB) and accumulate (0.5*a)*b.
type zoneTerm struct {
	az, bz       int
	conjA, conjB bool
}

// groupPlan is the compiled downmix structure for one occupancy signature:
// exactly the terms downmixZone0 + mulOccInto would execute per device, in
// the same order.
type groupPlan struct {
	yZones       []int // occupied DUT-output zones, ascending (the pack list)
	capY         int
	need2, need3 int
	y2terms      [][]zoneTerm // y^2 terms per output zone, 0..need2
	y3terms      [][]zoneTerm // y^3 terms per output zone, 0..need3
	y2occ, y3occ []bool
	pair         [3][3][]zoneTerm // zone-0 terms of each (y^p, lo^q) product
	rfFeed       bool
	loFeed       bool
}

// planeSet owns the pooled deinterleaved planes of one envelope power:
// re/im float64 slices per zone, length n*K, laid out [sample*K + device].
type planeSet struct {
	re, im [][]float64
}

// zone returns the (re, im) planes for zone z sized to size samples,
// growing the pool on first use and reusing it afterwards. Planes are not
// zeroed here: pack overwrites every element, accumulation stages zero
// explicitly before their first term.
func (p *planeSet) zone(z, size int) ([]float64, []float64) {
	for len(p.re) <= z {
		p.re = append(p.re, nil)
		p.im = append(p.im, nil)
	}
	if cap(p.re[z]) < size {
		p.re[z] = make([]float64, size)
		p.im[z] = make([]float64, size)
	}
	return p.re[z][:size], p.im[z][:size]
}

// devTail is one device's state between its front half and its tail.
type devTail struct {
	mode int
	key  planKey
	y    *envBuf
	ySig *EnvSignal
}

// ilGroup is one occupancy group: the devices (by slot index) sharing a plan.
type ilGroup struct {
	key  planKey
	devs []int
}

// ilState is the interleaved kernel's pooled scratch, owned by a runner.
type ilState struct {
	st     []devTail
	devY   []*envBuf
	groups []ilGroup
	plans  map[planKey]*groupPlan

	y, y2, y3   planeSet
	prod, down0 []float64
	row         []float64
	srcs        [][]complex128 // pack-stage per-device zone pointers
}

// maxPlans bounds the per-runner plan cache; fault models that churn
// occupancy signatures past it build plans per batch instead of leaking.
const maxPlans = 64

// defaultInterleaveTile is the device-group width of one SoA pass. 16
// devices keep a full working set (y, y^2, y^3 planes plus accumulators)
// inside L2 on commodity cores; larger batches are tiled so K=64 runs as
// four cache-friendly passes instead of one thrashing one.
const defaultInterleaveTile = 16

func (br *BatchRunner) tileSize() int {
	switch {
	case br.InterleaveTile == 0:
		return defaultInterleaveTile
	case br.InterleaveTile < 1:
		return 1
	}
	return br.InterleaveTile
}

// RunDevices completes every device's capture against the prepared stimulus,
// equivalent to running the serial tail per slot but with the downmix tail
// device-interleaved across each occupancy group. Per-slot outcomes land in
// the DeviceRun: panics from fault hooks are recovered into Panic (the
// caller re-raises under its own supervision), errors into Err. A slot never
// poisons its neighbors.
func (br *BatchRunner) RunDevices(devs []DeviceRun) {
	for i := range devs {
		devs[i].Err = nil
		devs[i].Panic = nil
	}
	if br.stim == nil {
		for i := range devs {
			devs[i].Err = fmt.Errorf("rf: BatchRunner.RunDevices before Prepare")
		}
		return
	}
	il := &br.il
	if cap(il.st) < len(devs) {
		il.st = make([]devTail, len(devs))
	}
	il.st = il.st[:len(devs)]
	for len(il.devY) < len(devs) {
		il.devY = append(il.devY, &envBuf{})
	}

	// Front half: per device, under per-device recovery. Identical FP order
	// to a one-device batch (the shared stimulus state makes fronts
	// independent).
	for i := range devs {
		br.frontDevice(i, &devs[i])
	}

	// Group the clean-LO devices by occupancy signature.
	ng := 0
	for i := range il.st {
		if il.st[i].mode != tailGrouped {
			continue
		}
		g := (*ilGroup)(nil)
		for gi := 0; gi < ng; gi++ {
			if il.groups[gi].key == il.st[i].key {
				g = &il.groups[gi]
				break
			}
		}
		if g == nil {
			if ng == len(il.groups) {
				il.groups = append(il.groups, ilGroup{})
			}
			g = &il.groups[ng]
			ng++
			g.key = il.st[i].key
			g.devs = g.devs[:0]
		}
		g.devs = append(g.devs, i)
	}

	// Tails: each group runs in cache-sized tiles through its shared plan;
	// singleton (sub)groups and recovered tile panics take the serial tail.
	tile := br.tileSize()
	for gi := 0; gi < ng; gi++ {
		g := &il.groups[gi]
		var plan *groupPlan
		for s := 0; s < len(g.devs); s += tile {
			e := min(s+tile, len(g.devs))
			sub := g.devs[s:e]
			if len(sub) == 1 {
				br.serialTailDevice(sub[0], devs)
				continue
			}
			if plan == nil {
				plan = br.planFor(g.key)
			}
			if !br.tryRunTile(devs, sub, plan) {
				for _, di := range sub {
					br.serialTailDevice(di, devs)
				}
				continue
			}
			for _, di := range sub {
				br.finishGrouped(di, devs)
			}
		}
	}
	for i := range il.st {
		if il.st[i].mode == tailSerial {
			br.serialTailDevice(i, devs)
		}
	}
}

// frontDevice runs one device's front half (DUT chain + contact fault) into
// its slot buffer and decides its tail mode. Any panic is recovered into the
// slot.
func (br *BatchRunner) frontDevice(slot int, dr *DeviceRun) {
	st := &br.il.st[slot]
	st.mode = tailDone
	st.y, st.ySig = nil, nil
	defer func() {
		if r := recover(); r != nil {
			dr.Panic = r
			st.mode = tailDone
		}
	}()
	if dr.Flt != nil && dr.Flt.StimTransform != nil {
		// The shared upconversion no longer applies; full reference path.
		dr.Capture, dr.Err = br.lb.RunEnvelopeFaulted(dr.DUT, br.stim, dr.Flt)
		return
	}
	br.powFor = nil
	y, ySig := br.front(dr.DUT, br.il.devY[slot])
	if dr.Flt != nil && dr.Flt.ContactGain != nil {
		scaleTime(y, dr.Flt.ContactGain)
	}
	st.y, st.ySig = y, ySig
	if !br.cleanLO(dr.Flt, y.alloc) || y.alloc > 63 {
		st.mode = tailSerial
		return
	}
	if ySig != nil {
		// Same check, same panic as the serial tail would raise after loFor.
		if err := ySig.compatible(br.loClean.sig); err != nil {
			panic(fmt.Errorf("rf: mixer inputs: %w", err))
		}
	}
	st.key = occKey(y)
	st.mode = tailGrouped
}

// cleanLO reports whether loFor would return the shared clean LO set.
func (br *BatchRunner) cleanLO(flt *InsertionFaults, yAlloc int) bool {
	return flt.loAmp(br.lb.CarrierAmp) == br.lb.CarrierAmp &&
		flt.loPhase(br.lb.PathPhase) == br.lb.PathPhase &&
		br.loCap(yAlloc) == br.loCap(br.mz)
}

// serialTailDevice completes one device through the per-device tail (the
// path a one-device group takes), recovering panics into the slot.
func (br *BatchRunner) serialTailDevice(di int, devs []DeviceRun) {
	dr := &devs[di]
	st := &br.il.st[di]
	defer func() {
		if r := recover(); r != nil {
			dr.Panic = r
		}
	}()
	dr.Capture = br.tail(st.y, st.ySig, dr.Flt)
}

// finishGrouped applies the capture-transform fault (the only per-device
// stage left after a tile) under per-device recovery.
func (br *BatchRunner) finishGrouped(di int, devs []DeviceRun) {
	dr := &devs[di]
	defer func() {
		if r := recover(); r != nil {
			dr.Panic = r
		}
	}()
	dr.Capture = br.applyCaptureTransform(dr.Capture, dr.Flt)
}

// occKey computes a device's occupancy signature. Callers guard alloc <= 63.
func occKey(y *envBuf) planKey {
	k := planKey{alloc: y.alloc}
	for z := 0; z <= y.alloc; z++ {
		if y.occ[z] {
			k.occ |= 1 << uint(z)
		}
	}
	return k
}

// planFor returns the compiled plan for one occupancy signature, caching up
// to maxPlans per prepared stimulus.
func (br *BatchRunner) planFor(key planKey) *groupPlan {
	if p := br.il.plans[key]; p != nil {
		return p
	}
	p := br.buildPlan(key)
	if br.il.plans == nil {
		br.il.plans = make(map[planKey]*groupPlan)
	}
	if len(br.il.plans) < maxPlans {
		br.il.plans[key] = p
	}
	return p
}

// buildPlan mirrors downmixZone0's sizing and term discovery exactly — same
// need2/need3 derivation, same i-ascending term order — against the shared
// clean LO.
func (br *BatchRunner) buildPlan(key planKey) *groupPlan {
	m := br.lb.DownMixer
	lo := br.loClean
	p := &groupPlan{}
	yAlloc := key.alloc
	yOcc := make([]bool, yAlloc+1)
	for z := 0; z <= yAlloc; z++ {
		if key.occ&(1<<uint(z)) != 0 {
			yOcc[z] = true
			p.yZones = append(p.yZones, z)
		}
	}
	capY := min(br.mz+lo.sig.MaxZone*3, 3*yAlloc)
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
		if v := need3 + yAlloc; v > need2 {
			need2 = v
		}
	}
	if need2 > capY {
		need2 = capY
	}
	p.capY, p.need2, p.need3 = capY, need2, need3

	if need2 >= 0 {
		p.y2terms, p.y2occ = mulPlanTerms(yOcc, yAlloc, yOcc, yAlloc, need2, capY)
	}
	if need3 >= 0 {
		p.y3terms, p.y3occ = mulPlanTerms(p.y2occ, capY, yOcc, yAlloc, need3, capY)
	}

	occs := [3][]bool{yOcc, p.y2occ, p.y3occ}
	allocs := [3]int{yAlloc, capY, capY}
	avail := [3]bool{true, need2 >= 0, need3 >= 0}
	for pi := 1; pi <= 3; pi++ {
		for q := 1; q <= 3; q++ {
			if m.K[pi-1][q-1] == 0 || !avail[pi-1] {
				continue
			}
			ypOcc, ypAlloc := occs[pi-1], allocs[pi-1]
			lq := lo.pows[q-1]
			var terms []zoneTerm
			for i := -ypAlloc; i <= ypAlloc; i++ {
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
				if !ypOcc[ai] || !lq.occ[bj] {
					continue
				}
				terms = append(terms, zoneTerm{az: ai, bz: bj, conjA: i < 0, conjB: j < 0})
			}
			p.pair[pi-1][q-1] = terms
		}
	}
	p.rfFeed = m.RFFeedthrough != 0 && yOcc[0]
	p.loFeed = m.LOFeedthrough != 0 && lo.pows[0].occ[0]
	return p
}

// mulPlanTerms compiles the surviving terms of mulOccInto(out, a, b,
// computeMax) for fixed occupancies: per output zone m, i ascending over
// a's allocated zones, j = m-i bounds-checked against b's — the serial term
// order exactly.
func mulPlanTerms(aOcc []bool, aAlloc int, bOcc []bool, bAlloc, computeMax, outAlloc int) ([][]zoneTerm, []bool) {
	if computeMax > outAlloc {
		computeMax = outAlloc
	}
	terms := make([][]zoneTerm, computeMax+1)
	occ := make([]bool, outAlloc+1)
	for m := 0; m <= computeMax; m++ {
		for i := -aAlloc; i <= aAlloc; i++ {
			j := m - i
			if j < -bAlloc || j > bAlloc {
				continue
			}
			ai, bj := i, j
			if ai < 0 {
				ai = -ai
			}
			if bj < 0 {
				bj = -bj
			}
			if !aOcc[ai] || !bOcc[bj] {
				continue
			}
			terms[m] = append(terms[m], zoneTerm{az: ai, bz: bj, conjA: i < 0, conjB: j < 0})
		}
		occ[m] = len(terms[m]) > 0
	}
	return terms, occ
}

// tryRunTile runs one tile, reporting false (for a per-device serial redo)
// if the tile math panicked. The capture transform has not run yet at any
// panic point here, so a redo never double-applies a fault.
func (br *BatchRunner) tryRunTile(devs []DeviceRun, idxs []int, plan *groupPlan) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	br.runTile(devs, idxs, plan)
	return true
}

// runTile executes the shared plan over one device tile: pack, y^2, y^3,
// real-only pair products + feedthrough, decimated FIR, scatter.
func (br *BatchRunner) runTile(devs []DeviceRun, idxs []int, plan *groupPlan) {
	il := &br.il
	k := len(idxs)
	sz := br.n * k

	// Pack with the device index innermost so every plane write is
	// contiguous; the per-device sources advance as k parallel streams.
	if cap(il.srcs) < k {
		il.srcs = make([][]complex128, k)
	}
	srcs := il.srcs[:k]
	for _, z := range plan.yZones {
		re, im := il.y.zone(z, sz)
		for d, di := range idxs {
			srcs[d] = il.st[di].y.z[z]
		}
		for t := 0; t < br.n; t++ {
			rowRe := re[t*k : t*k+k]
			rowIm := im[t*k : t*k+k]
			for d := range srcs {
				v := srcs[d][t]
				rowRe[d] = real(v)
				rowIm[d] = imag(v)
			}
		}
	}

	if plan.need2 >= 0 {
		for m, terms := range plan.y2terms {
			if len(terms) == 0 {
				continue
			}
			oRe, oIm := il.y2.zone(m, sz)
			zeroF(oRe)
			zeroF(oIm)
			for _, tm := range terms {
				aRe, aIm := il.y.zone(tm.az, sz)
				bRe, bIm := il.y.zone(tm.bz, sz)
				macPlanes(oRe, oIm, aRe, aIm, bRe, bIm, tm.conjA, tm.conjB)
			}
		}
	}
	if plan.need3 >= 0 {
		for m, terms := range plan.y3terms {
			if len(terms) == 0 {
				continue
			}
			oRe, oIm := il.y3.zone(m, sz)
			zeroF(oRe)
			zeroF(oIm)
			for _, tm := range terms {
				aRe, aIm := il.y2.zone(tm.az, sz)
				bRe, bIm := il.y.zone(tm.bz, sz)
				macPlanes(oRe, oIm, aRe, aIm, bRe, bIm, tm.conjA, tm.conjB)
			}
		}
	}

	if cap(il.down0) < sz {
		il.down0 = make([]float64, sz)
	}
	d0 := il.down0[:sz]
	zeroF(d0)
	if cap(il.prod) < sz {
		il.prod = make([]float64, sz)
	}
	prod := il.prod[:sz]
	m := br.lb.DownMixer
	lo := br.loClean
	sets := [3]*planeSet{&il.y, &il.y2, &il.y3}
	for pi := 1; pi <= 3; pi++ {
		for q := 1; q <= 3; q++ {
			terms := plan.pair[pi-1][q-1]
			if len(terms) == 0 {
				continue
			}
			zeroF(prod)
			for _, tm := range terms {
				aRe, aIm := sets[pi-1].zone(tm.az, sz)
				macPairRealLO(prod, aRe, aIm, lo.pows[q-1].z[tm.bz], k, tm.conjA, tm.conjB)
			}
			addScaled(d0, prod, m.K[pi-1][q-1])
		}
	}
	if plan.rfFeed {
		re, _ := il.y.zone(0, sz)
		addScaled(d0, re, m.RFFeedthrough)
	}
	if plan.loFeed {
		addScaledLO(d0, lo.pows[0].z[0], m.LOFeedthrough, k)
	}
	for x := range d0 {
		d0[x] = d0[x] / 2
	}

	capN := br.lb.CaptureN
	for _, di := range idxs {
		dr := &devs[di]
		if cap(dr.Capture) < capN {
			dr.Capture = make([]float64, capN)
		}
		dr.Capture = dr.Capture[:capN]
	}
	br.firDecimateTile(d0, k, idxs, devs)
}

// macPlanes accumulates one zone-pair term, (0.5*a)*b with optional
// conjugations, over deinterleaved planes. The per-element operations and
// their order match the serial complex accumulation for every nonzero value;
// the serial multiply's 0.5*re - 0*im real path can differ from 0.5*re only
// in the sign of an exact zero (finite data), which the bit-identity
// contract already tolerates.
func macPlanes(oRe, oIm, aRe, aIm, bRe, bIm []float64, conjA, conjB bool) {
	n := len(oRe)
	oIm = oIm[:n]
	aRe = aRe[:n]
	aIm = aIm[:n]
	bRe = bRe[:n]
	bIm = bIm[:n]
	ah := 0.5
	if conjA {
		ah = -0.5
	}
	if conjB {
		for x := 0; x < n; x++ {
			ur, ui := 0.5*aRe[x], ah*aIm[x]
			br, bi := bRe[x], -bIm[x]
			oRe[x] += ur*br - ui*bi
			oIm[x] += ur*bi + ui*br
		}
		return
	}
	for x := 0; x < n; x++ {
		ur, ui := 0.5*aRe[x], ah*aIm[x]
		br, bi := bRe[x], bIm[x]
		oRe[x] += ur*br - ui*bi
		oIm[x] += ur*bi + ui*br
	}
}

// macPairRealLO accumulates the real part of one (device-plane x shared-LO)
// zone-pair term. Only real(down0) ever feeds the digitizer and the real
// accumulator chain never reads the imaginary one, so skipping the imaginary
// half is exactly bit-identical, not just magnitude-identical. The LO sample
// is loaded once per time step and reused across the K devices.
func macPairRealLO(oRe, aRe, aIm []float64, b []complex128, k int, conjA, conjB bool) {
	ah := 0.5
	if conjA {
		ah = -0.5
	}
	bs := 1.0
	if conjB {
		bs = -1
	}
	for t, bv := range b {
		br := real(bv)
		bi := bs * imag(bv)
		o := oRe[t*k : t*k+k]
		ar := aRe[t*k : t*k+k]
		ai := aIm[t*k : t*k+k]
		for d := range o {
			ur, ui := 0.5*ar[d], ah*ai[d]
			o[d] += ur*br - ui*bi
		}
	}
}

// addScaled accumulates o += c*src elementwise, the real path of the serial
// down0 += complex(c, 0)*prod accumulation.
func addScaled(o, src []float64, c float64) {
	o = o[:len(src)]
	for x, v := range src {
		o[x] += c * v
	}
}

// addScaledLO adds the feedthrough of a shared LO zone to every device's
// real accumulator: the scaled sample is computed once per time step.
func addScaledLO(o []float64, src []complex128, c float64, k int) {
	for t, v := range src {
		w := c * real(v)
		ot := o[t*k : t*k+k]
		for d := range ot {
			ot[d] += w
		}
	}
}

func zeroF(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// firDecimateTile evaluates the channel filter only at the CaptureN
// decimated output positions, directly on the packed base plane, and
// scatters each row into its device's capture. Index math mirrors
// FilterCompensated + strideDecimate: output m reads padded index
// i = delay + (settle+m)*os, which by the runner's n formula always
// satisfies i <= n-2*os, so the zero-pad region is never touched; the tap
// loop breaks at j < 0 exactly like dsp.FIR.Filter.
func (br *BatchRunner) firDecimateTile(basePlane []float64, k int, idxs []int, devs []DeviceRun) {
	taps := br.fir.Taps
	delay := (len(taps) - 1) / 2
	if cap(br.il.row) < k {
		br.il.row = make([]float64, k)
	}
	row := br.il.row[:k]
	for m := 0; m < br.lb.CaptureN; m++ {
		i := delay + (br.settle+m)*br.os
		for d := range row {
			row[d] = 0
		}
		for kk := 0; kk < len(taps); kk++ {
			j := i - kk
			if j < 0 {
				break
			}
			c := taps[kk]
			src := basePlane[j*k : j*k+k]
			for d := range row {
				row[d] += c * src[d]
			}
		}
		for d, di := range idxs {
			devs[di].Capture[m] = row[d]
		}
	}
}
