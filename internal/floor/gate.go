package floor

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/stat"
)

// Verdict is the gate's classification of one captured signature.
type Verdict int

const (
	// VerdictClean means the capture sits inside the training envelope and
	// the reduced-space distance band: hand it to the regression.
	VerdictClean Verdict = iota
	// VerdictSuspect means the capture is marginally outside the training
	// statistics: retest before trusting a prediction.
	VerdictSuspect
	// VerdictInvalid means the capture cannot have come from a healthy
	// insertion (envelope blown or far outside the signature manifold).
	VerdictInvalid
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "CLEAN"
	case VerdictSuspect:
		return "SUSPECT"
	case VerdictInvalid:
		return "INVALID"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// GateOptions tunes the sanity gate.
type GateOptions struct {
	// MaxComponents caps the reduced space dimension (default 12).
	MaxComponents int
	// EnvelopeZ is the per-bin outlier threshold in training sigmas
	// (default 8 — the per-bin spread across training devices includes
	// process variation, so healthy captures stay well inside it).
	EnvelopeZ float64
	// MaxOutlierFrac is the fraction of envelope-outlier bins beyond which
	// a capture is INVALID outright (default 0.25).
	MaxOutlierFrac float64
	// SuspectMargin and InvalidMargin scale the worst training distance
	// into the SUSPECT and INVALID thresholds (defaults 1.5 and 4).
	SuspectMargin float64
	InvalidMargin float64
}

func (o *GateOptions) defaults() {
	if o.MaxComponents <= 0 {
		o.MaxComponents = 12
	}
	if o.EnvelopeZ <= 0 {
		o.EnvelopeZ = 8
	}
	if o.MaxOutlierFrac <= 0 {
		o.MaxOutlierFrac = 0.25
	}
	if o.SuspectMargin <= 0 {
		o.SuspectMargin = 1.5
	}
	if o.InvalidMargin <= 0 {
		o.InvalidMargin = 4
	}
}

// Gate is the signature sanity gate: a per-bin mean/sigma envelope plus a
// Mahalanobis-style distance in the SVD-reduced space of the training
// signatures. Both views are fit once on the calibration training set —
// the same signatures the regression was trained on — so anything the
// gate flags is by construction outside the region where the regression
// was ever validated.
type Gate struct {
	Mean  []float64 // per-bin training mean
	Sigma []float64 // per-bin training sigma (floored)

	basis     *linalg.Matrix // m x p, columns are principal directions
	compSigma []float64      // per-component training sigma
	resSigma  float64        // training residual RMS (floored)

	// Thresholds calibrated from the training distances.
	SuspectD, InvalidD     float64
	SuspectRes, InvalidRes float64

	// TrainMeanD and TrainSigmaD are the mean and standard deviation of
	// the training set's own reduced-space distances — the baseline the
	// drift watchdog standardizes production distances against.
	TrainMeanD, TrainSigmaD float64
	// TrainZ is the training set's own distances standardized by
	// TrainMeanD/TrainSigmaD, sorted ascending: the empirical distribution
	// the drift watchdog ranks a production distance in. Screening never
	// reads it, so it is left out of Engine.Fingerprint.
	TrainZ []float64

	opt GateOptions
}

// FitGate fits the gate on the training-set signatures.
func FitGate(signatures [][]float64, opt GateOptions) (*Gate, error) {
	opt.defaults()
	n := len(signatures)
	if n < 8 {
		return nil, fmt.Errorf("floor: need >= 8 training signatures to fit a gate, got %d", n)
	}
	m := len(signatures[0])
	X := linalg.NewMatrix(n, m)
	for i, s := range signatures {
		if len(s) != m {
			return nil, fmt.Errorf("floor: training signature %d has length %d, want %d", i, len(s), m)
		}
		X.SetRow(i, s)
	}

	g := &Gate{opt: opt, Mean: make([]float64, m), Sigma: make([]float64, m)}
	sigmaFloor := 0.0
	for j := 0; j < m; j++ {
		col := X.Col(j)
		g.Mean[j] = stat.Mean(col)
		g.Sigma[j] = stat.StdDev(col)
		sigmaFloor += g.Sigma[j]
	}
	// Floor degenerate bins at a fraction of the average spread so a
	// constant training bin cannot turn every capture into an outlier.
	sigmaFloor = math.Max(sigmaFloor/float64(m)*1e-3, 1e-15)
	for j := range g.Sigma {
		if g.Sigma[j] < sigmaFloor {
			g.Sigma[j] = sigmaFloor
		}
	}

	centered := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			centered.Set(i, j, X.At(i, j)-g.Mean[j])
		}
	}
	svd := linalg.ComputeSVD(centered)
	p := 0
	for p < len(svd.S) && p < opt.MaxComponents && svd.S[p] > 1e-9*svd.S[0] {
		p++
	}
	if p == 0 {
		return nil, fmt.Errorf("floor: training signatures are rank-deficient, cannot fit gate")
	}
	g.basis = linalg.NewMatrix(m, p)
	g.compSigma = make([]float64, p)
	for c := 0; c < p; c++ {
		for j := 0; j < m; j++ {
			g.basis.Set(j, c, svd.V.At(j, c))
		}
		g.compSigma[c] = svd.S[c] / math.Sqrt(float64(n-1))
	}

	// Calibrate thresholds on the training set's own distances.
	dTrain := make([]float64, n)
	resTrain := make([]float64, n)
	for i := range signatures {
		dTrain[i], resTrain[i] = g.Distance(signatures[i])
	}
	g.TrainMeanD = stat.Mean(dTrain)
	g.TrainSigmaD = math.Max(stat.StdDev(dTrain), 1e-15)
	g.TrainZ = make([]float64, n)
	for i, d := range dTrain {
		g.TrainZ[i] = (d - g.TrainMeanD) / g.TrainSigmaD
	}
	sort.Float64s(g.TrainZ)
	g.resSigma = math.Max(stat.RMS(resTrain), 1e-15)
	for i := range resTrain {
		resTrain[i] /= g.resSigma
	}
	dMax, resMax := maxOf(dTrain), maxOf(resTrain)
	g.SuspectD = dMax * opt.SuspectMargin
	g.InvalidD = dMax * opt.InvalidMargin
	g.SuspectRes = resMax * opt.SuspectMargin
	g.InvalidRes = resMax * opt.InvalidMargin
	return g, nil
}

func maxOf(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// Components returns the reduced-space dimension.
func (g *Gate) Components() int { return g.basis.Cols }

// Distance returns the normalized Mahalanobis-style distance of sig in the
// reduced space and the out-of-subspace residual norm. Before threshold
// calibration completes the residual is raw; afterwards Classify compares
// it against resSigma-normalized thresholds.
func (g *Gate) Distance(sig []float64) (d, residual float64) {
	m := len(g.Mean)
	if len(sig) != m {
		return math.Inf(1), math.Inf(1)
	}
	dx := make([]float64, m)
	for j := range dx {
		dx[j] = sig[j] - g.Mean[j]
	}
	p := g.basis.Cols
	proj := make([]float64, m)
	sum := 0.0
	for c := 0; c < p; c++ {
		z := 0.0
		for j := 0; j < m; j++ {
			z += dx[j] * g.basis.At(j, c)
		}
		w := z / g.compSigma[c]
		sum += w * w
		for j := 0; j < m; j++ {
			proj[j] += z * g.basis.At(j, c)
		}
	}
	res := 0.0
	for j := 0; j < m; j++ {
		r := dx[j] - proj[j]
		res += r * r
	}
	return math.Sqrt(sum / float64(p)), math.Sqrt(res)
}

// EnvelopeOutliers counts signature bins outside Mean +/- EnvelopeZ*Sigma.
func (g *Gate) EnvelopeOutliers(sig []float64) int {
	if len(sig) != len(g.Mean) {
		return len(g.Mean)
	}
	out := 0
	for j := range sig {
		if math.Abs(sig[j]-g.Mean[j]) > g.opt.EnvelopeZ*g.Sigma[j] {
			out++
		}
	}
	return out
}

// Classify gates one capture before prediction. It also returns the raw
// reduced-space distance it computed on the way (the same value Distance
// returns first), so callers that record the distance of an accepted
// capture — the drift watchdog's observable — don't pay for a second
// projection.
func (g *Gate) Classify(sig []float64) (Verdict, float64) {
	outliers := g.EnvelopeOutliers(sig)
	d, res := g.Distance(sig)
	res /= g.resSigma
	frac := float64(outliers) / float64(len(g.Mean))
	switch {
	case frac > g.opt.MaxOutlierFrac || d > g.InvalidD || res > g.InvalidRes:
		return VerdictInvalid, d
	case outliers > 0 || d > g.SuspectD || res > g.SuspectRes:
		return VerdictSuspect, d
	default:
		return VerdictClean, d
	}
}

// gateState is the serialized form of a Gate: every field that Classify,
// Distance, the engine fingerprint and the drift watchdog depend on,
// exported for JSON. The float64 values round-trip exactly (encoding/json
// emits the shortest representation that parses back to the same bits),
// so a decoded gate classifies bit-identically to the original.
type gateState struct {
	Mean       []float64      `json:"mean"`
	Sigma      []float64      `json:"sigma"`
	Basis      *linalg.Matrix `json:"basis"`
	CompSigma  []float64      `json:"comp_sigma"`
	ResSigma   float64        `json:"res_sigma"`
	SuspectD   float64        `json:"suspect_d"`
	InvalidD   float64        `json:"invalid_d"`
	SuspectRes float64        `json:"suspect_res"`
	InvalidRes float64        `json:"invalid_res"`
	TrainMeanD float64        `json:"train_mean_d"`
	TrainSigD  float64        `json:"train_sigma_d"`
	TrainZ     []float64      `json:"train_z,omitempty"`
	Opt        GateOptions    `json:"opt"`
}

// MarshalJSON serializes the gate for a calibration artifact.
func (g *Gate) MarshalJSON() ([]byte, error) {
	return json.Marshal(gateState{
		Mean: g.Mean, Sigma: g.Sigma,
		Basis: g.basis, CompSigma: g.compSigma, ResSigma: g.resSigma,
		SuspectD: g.SuspectD, InvalidD: g.InvalidD,
		SuspectRes: g.SuspectRes, InvalidRes: g.InvalidRes,
		TrainMeanD: g.TrainMeanD, TrainSigD: g.TrainSigmaD, TrainZ: g.TrainZ,
		Opt: g.opt,
	})
}

// UnmarshalJSON rebuilds a gate from its artifact form.
func (g *Gate) UnmarshalJSON(data []byte) error {
	var st gateState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("floor: decode gate: %w", err)
	}
	if st.Basis == nil || st.Basis.Rows == 0 || st.Basis.Cols == 0 {
		return fmt.Errorf("floor: decoded gate has no reduced-space basis")
	}
	if len(st.Mean) != st.Basis.Rows || len(st.Sigma) != st.Basis.Rows ||
		len(st.CompSigma) != st.Basis.Cols {
		return fmt.Errorf("floor: decoded gate dimensions disagree (%d bins, %dx%d basis, %d comp sigmas)",
			len(st.Mean), st.Basis.Rows, st.Basis.Cols, len(st.CompSigma))
	}
	if st.ResSigma <= 0 {
		return fmt.Errorf("floor: decoded gate residual sigma %v out of range", st.ResSigma)
	}
	// Artifacts written before the watchdog ranked distances carry no
	// train_z; a present one must be sorted for the rank lookup.
	if !sort.Float64sAreSorted(st.TrainZ) {
		return fmt.Errorf("floor: decoded gate train_z is not sorted")
	}
	*g = Gate{
		Mean: st.Mean, Sigma: st.Sigma,
		basis: st.Basis, compSigma: st.CompSigma, resSigma: st.ResSigma,
		SuspectD: st.SuspectD, InvalidD: st.InvalidD,
		SuspectRes: st.SuspectRes, InvalidRes: st.InvalidRes,
		TrainMeanD: st.TrainMeanD, TrainSigmaD: st.TrainSigD, TrainZ: st.TrainZ,
		opt: st.Opt,
	}
	return nil
}
