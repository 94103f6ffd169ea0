package regress

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
)

// MARS is a simplified Multivariate Adaptive Regression Splines trainer —
// the regression family of the papers the calibration flow cites ([4],
// [9]). The forward pass greedily adds reflected-pair hinge bases
// max(0, x_j - t) / max(0, t - x_j) (optionally in two-way products with an
// existing basis); the backward pass prunes terms by generalized
// cross-validation (GCV).
//
// The forward pass scores candidates as Friedman's MARS does: it keeps an
// orthonormal basis of the chosen columns (modified Gram-Schmidt run
// twice) and scores a candidate pair by the RSS left after projecting the
// residual onto the pair's orthogonalized span, O(n·m) per candidate
// instead of an SVD least-squares fit. The model is nevertheless
// bit-identical to scoring every candidate with that SVD fit (solveLS):
// every candidate whose updated RSS lies within a near-tie window (nearTie)
// above the solveLS SSE of the candidate the update ranks first is
// re-scored with solveLS in the original iteration order with the same
// strict <, so the same pair wins, and only the winner's solveLS fit
// supplies the coefficients and SSE that the stop test and the next step
// see. If the basis's residual ever disagrees with solveLS's SSE beyond
// that window, the rest of the pass re-scores every candidate with
// solveLS. The backward pass refits with solveLS.
type MARS struct {
	MaxTerms     int  // maximum basis functions incl. intercept (default 13)
	Knots        int  // candidate knots per variable (default 5, at quantiles)
	Interactions bool // allow two-way hinge products
}

// Name implements Trainer.
func (m MARS) Name() string { return "mars" }

func (m MARS) maxTerms() int {
	if m.MaxTerms <= 1 {
		return 13
	}
	return m.MaxTerms
}

func (m MARS) knots() int {
	if m.Knots <= 0 {
		return 5
	}
	return m.Knots
}

// hinge is one factor of a basis function.
type hinge struct {
	Var  int
	Knot float64
	Sign int // +1: max(0, x-t); -1: max(0, t-x)
}

func (h hinge) eval(x []float64) float64 {
	v := float64(h.Sign) * (x[h.Var] - h.Knot)
	if v < 0 {
		return 0
	}
	return v
}

// basis is a product of hinges (empty = intercept).
type basis []hinge

func (b basis) eval(x []float64) float64 {
	v := 1.0
	for _, h := range b {
		v *= h.eval(x)
		if v == 0 {
			return 0
		}
	}
	return v
}

type marsModel struct {
	nz    *Normalizer
	bases []basis
	coef  []float64
}

func (m *marsModel) Predict(x []float64) float64 {
	z := m.nz.Apply(x)
	s := 0.0
	for i, b := range m.bases {
		s += m.coef[i] * b.eval(z)
	}
	return s
}

// Fit implements Trainer.
func (m MARS) Fit(X *linalg.Matrix, y []float64) (Model, error) {
	if X.Rows != len(y) {
		return nil, fmt.Errorf("regress: %d rows vs %d targets", X.Rows, len(y))
	}
	if X.Rows < 4 {
		return nil, fmt.Errorf("regress: MARS needs at least 4 rows, got %d", X.Rows)
	}
	nz := FitNormalizer(X)
	Z := nz.ApplyAll(X)
	n, d := Z.Rows, Z.Cols
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = Z.Row(i)
	}

	// Candidate knots per variable at quantiles of the training data.
	knots := make([][]float64, d)
	for j := 0; j < d; j++ {
		col := Z.Col(j)
		sort.Float64s(col)
		ks := make([]float64, 0, m.knots())
		for q := 1; q <= m.knots(); q++ {
			ks = append(ks, col[(q*(n-1))/(m.knots()+1)])
		}
		knots[j] = dedupFloats(ks)
	}

	bases := []basis{{}} // intercept
	cols := [][]float64{ones(n)}
	coef, sse := solveLS(cols, y)

	// The orthonormal basis scores candidates; whenever its residual
	// disagrees with solveLS's sse (non-finite data, or a near-dependency
	// the two rank tests judge differently), every candidate is re-scored
	// by solveLS, as the SVD-per-candidate forward pass did.
	yy := linalg.Dot(y, y)
	ob := &orthoBasis{r: append([]float64(nil), y...)}
	ob.add(cols[0])
	rescoreAll := !ob.agrees(sse, yy)

	// Forward pass.
	type cand struct {
		b1, b2 basis
		sse    float64
		coef   []float64
	}
	type scored struct {
		parent, j int
		knot      float64
		rss       float64 // RSS after the orthogonal update
	}
	var cands []scored
	c1, c2 := make([]float64, n), make([]float64, n)
	w1, w2 := make([]float64, n), make([]float64, n)
	// The pass ends at an exact fit too: below nearTie's floor the
	// improvement test would be decided by rounding noise, re-adding
	// the same pair until MaxTerms.
	for len(bases) < m.maxTerms() && sse > 1e-12*yy {
		parents := []basis{{}}
		if m.Interactions {
			parents = bases
		}
		cands = cands[:0]
		for pi, parent := range parents {
			if len(parent) >= 2 {
				continue // limit interaction order to 2
			}
			pcol := cols[pi] // parents is bases, or the intercept alone (cols[0])
			for j := 0; j < d; j++ {
				if usesVar(parent, j) {
					continue
				}
				for _, t := range knots[j] {
					for i, p := range pcol {
						h := rows[i][j] - t
						c1[i], c2[i] = p*math.Max(0, h), p*math.Max(0, -h)
					}
					cands = append(cands, scored{parent: pi, j: j, knot: t, rss: ob.score(c1, c2, w1, w2)})
				}
			}
		}
		refit := func(c scored) *cand {
			b1 := append(append(basis{}, parents[c.parent]...), hinge{Var: c.j, Knot: c.knot, Sign: +1})
			b2 := append(append(basis{}, parents[c.parent]...), hinge{Var: c.j, Knot: c.knot, Sign: -1})
			trial := append(append([][]float64{}, cols...), evalColumn(b1, rows), evalColumn(b2, rows))
			co, s := solveLS(trial, y)
			return &cand{b1: b1, b2: b2, sse: s, coef: co}
		}
		// An updated RSS exceeds its candidate's solveLS sse by rounding at
		// most: a direction the basis drops (unit) is one the SVD truncates
		// too. So the SVD-per-candidate winner, whose sse is at most that
		// of the candidate the update ranks first, has an updated RSS
		// within the near-tie window above that sse. Those candidates are
		// re-scored by solveLS in iteration order, and the strict < keeps
		// the first of equals.
		var best *cand
		if len(cands) > 0 {
			k0 := 0
			for k, c := range cands {
				if c.rss < cands[k0].rss {
					k0 = k
				}
			}
			first := refit(cands[k0])
			limit := first.sse + nearTie(first.sse, yy)
			if rescoreAll {
				limit = math.Inf(1)
			}
			for k, c := range cands {
				if c.rss > limit {
					continue
				}
				s := first
				if k != k0 {
					s = refit(c)
				}
				if best == nil || s.sse < best.sse {
					best = s
				}
			}
		}
		if best == nil || best.sse > sse*(1-1e-6) {
			break // no meaningful improvement
		}
		bases = append(bases, best.b1, best.b2)
		cols = append(cols, evalColumn(best.b1, rows), evalColumn(best.b2, rows))
		coef, sse = best.coef, best.sse
		ob.add(cols[len(cols)-2])
		ob.add(cols[len(cols)-1])
		rescoreAll = rescoreAll || !ob.agrees(sse, yy)
	}

	// Backward pruning by GCV.
	gcv := func(sse float64, nterms int) float64 {
		c := float64(nterms) + 2*float64(nterms-1) // effective parameters
		den := 1 - c/float64(n)
		if den <= 0 {
			return math.Inf(1)
		}
		return sse / float64(n) / (den * den)
	}
	bestGCV := gcv(sse, len(bases))
	improved := true
	for improved && len(bases) > 1 {
		improved = false
		for drop := 1; drop < len(bases); drop++ {
			tb := make([][]float64, 0, len(cols)-1)
			bb := make([]basis, 0, len(bases)-1)
			for i := range bases {
				if i == drop {
					continue
				}
				tb = append(tb, cols[i])
				bb = append(bb, bases[i])
			}
			co, s := solveLS(tb, y)
			if g := gcv(s, len(bb)); g < bestGCV {
				bestGCV = g
				bases, cols, coef, sse = bb, tb, co, s
				improved = true
				break
			}
		}
	}
	return &marsModel{nz: nz, bases: bases, coef: coef}, nil
}

// solveLS fits y against the given columns (least squares via
// pseudoinverse) and returns coefficients and SSE.
func solveLS(cols [][]float64, y []float64) ([]float64, float64) {
	n := len(y)
	A := linalg.NewMatrix(n, len(cols))
	for j, c := range cols {
		for i := 0; i < n; i++ {
			A.Set(i, j, c[i])
		}
	}
	w := linalg.SolveLeastSquares(A, y)
	pred := A.MulVec(w)
	sse := 0.0
	for i := range y {
		r := y[i] - pred[i]
		sse += r * r
	}
	return w, sse
}

// nearTie is the window above a solveLS sse within which an orthogonally
// updated RSS may hide a candidate with a lower solveLS sse: relative
// rounding of the SVD fit plus an absolute floor (yy = ‖y‖²) for exact
// fits. Measured on both rigs' Calibrate fits, the largest excess of an
// updated RSS over its solveLS sse is below 1e-6 of this window.
func nearTie(sse, yy float64) float64 {
	return 1e-7*sse + 1e-12*yy
}

// orthoBasis is an orthonormal basis of the forward pass's chosen columns,
// built by modified Gram-Schmidt run twice, and the residual of y
// projected off it.
type orthoBasis struct {
	q      [][]float64
	r      []float64
	colMax float64 // largest chosen column norm
}

// orth removes from v its components along the basis and along extra (a
// unit or zero vector, or nil), modified Gram-Schmidt run twice, and
// returns the norm of what is left.
func (b *orthoBasis) orth(v, extra []float64) float64 {
	for pass := 0; pass < 2; pass++ {
		for _, q := range b.q {
			linalg.AXPY(-linalg.Dot(q, v), q, v)
		}
		if extra != nil {
			linalg.AXPY(-linalg.Dot(extra, v), extra, v)
		}
	}
	return math.Sqrt(linalg.Dot(v, v))
}

// unit orthogonalizes v (against extra too) and scales it to unit norm.
// A column whose orthogonal part is within the SVD's rank tolerance of
// zero (1e-12 of the largest column norm, a lower bound on the largest
// singular value) adds no direction: unit zeroes v and returns false.
func (b *orthoBasis) unit(v, extra []float64, colMax float64) bool {
	nv := b.orth(v, extra)
	if !(nv > 1e-12*colMax) {
		clear(v)
		return false
	}
	for i := range v {
		v[i] /= nv
	}
	return true
}

// add extends the basis by column c and takes the new direction off the
// residual.
func (b *orthoBasis) add(c []float64) {
	b.colMax = math.Max(b.colMax, math.Sqrt(linalg.Dot(c, c)))
	v := append([]float64(nil), c...)
	if !b.unit(v, nil, b.colMax) {
		return
	}
	b.q = append(b.q, v)
	for pass := 0; pass < 2; pass++ {
		linalg.AXPY(-linalg.Dot(v, b.r), v, b.r)
	}
}

// score returns the RSS left when the residual is also projected onto the
// orthogonalized span of c1 and c2; a column with no new direction
// contributes nothing. w1 and w2 are scratch.
func (b *orthoBasis) score(c1, c2, w1, w2 []float64) float64 {
	colMax := math.Max(b.colMax, math.Sqrt(math.Max(linalg.Dot(c1, c1), linalg.Dot(c2, c2))))
	copy(w1, c1)
	copy(w2, c2)
	b.unit(w1, nil, colMax)
	b.unit(w2, w1, colMax)
	a1, a2 := linalg.Dot(w1, b.r), linalg.Dot(w2, b.r)
	rss := 0.0
	for i, r := range b.r {
		r -= a1*w1[i] + a2*w2[i]
		rss += r * r
	}
	return rss
}

// agrees reports whether the basis's residual matches a solveLS sse of
// the same columns.
func (b *orthoBasis) agrees(sse, yy float64) bool {
	return math.Abs(linalg.Dot(b.r, b.r)-sse) <= nearTie(sse, yy)
}

func evalColumn(b basis, rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = b.eval(r)
	}
	return out
}

func usesVar(b basis, j int) bool {
	for _, h := range b {
		if h.Var == j {
			return true
		}
	}
	return false
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func dedupFloats(v []float64) []float64 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}
