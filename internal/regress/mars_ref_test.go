package regress

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
)

// ReferenceMARS is the forward pass MARS.Fit replaced: every candidate
// pair is scored by a fresh SVD least-squares fit of all chosen columns
// plus the pair. It is the oracle of the bit-identity tests and the
// baseline of the speed gate; exported so the package's external tests
// can run it too.
type ReferenceMARS MARS

// Name implements Trainer.
func (m ReferenceMARS) Name() string { return "mars" }

// Fit implements Trainer with one solveLS per forward-pass candidate.
func (m ReferenceMARS) Fit(X *linalg.Matrix, y []float64) (Model, error) {
	mm := MARS(m)
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

	knots := make([][]float64, d)
	for j := 0; j < d; j++ {
		col := Z.Col(j)
		sort.Float64s(col)
		ks := make([]float64, 0, mm.knots())
		for q := 1; q <= mm.knots(); q++ {
			ks = append(ks, col[(q*(n-1))/(mm.knots()+1)])
		}
		knots[j] = dedupFloats(ks)
	}

	bases := []basis{{}}
	cols := [][]float64{ones(n)}
	coef, sse := solveLS(cols, y)

	yy := linalg.Dot(y, y)
	for len(bases) < mm.maxTerms() && sse > 1e-12*yy {
		type cand struct {
			b1, b2 basis
			sse    float64
			coef   []float64
		}
		var best *cand
		parents := []basis{{}}
		if mm.Interactions {
			parents = bases
		}
		for _, parent := range parents {
			if len(parent) >= 2 {
				continue
			}
			for j := 0; j < d; j++ {
				if usesVar(parent, j) {
					continue
				}
				for _, t := range knots[j] {
					b1 := append(append(basis{}, parent...), hinge{Var: j, Knot: t, Sign: +1})
					b2 := append(append(basis{}, parent...), hinge{Var: j, Knot: t, Sign: -1})
					c1 := evalColumn(b1, rows)
					c2 := evalColumn(b2, rows)
					trial := append(append([][]float64{}, cols...), c1, c2)
					co, s := solveLS(trial, y)
					if best == nil || s < best.sse {
						best = &cand{b1: b1, b2: b2, sse: s, coef: co}
					}
				}
			}
		}
		if best == nil || best.sse > sse*(1-1e-6) {
			break
		}
		bases = append(bases, best.b1, best.b2)
		cols = append(cols, evalColumn(best.b1, rows), evalColumn(best.b2, rows))
		coef, sse = best.coef, best.sse
	}

	gcv := func(sse float64, nterms int) float64 {
		c := float64(nterms) + 2*float64(nterms-1)
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

// MARSDiff returns "" when a and b, both fitted MARS models, hold the
// same normalizer, the same bases in the same order and Float64bits-equal
// coefficients; otherwise it describes the first difference.
func MARSDiff(a, b Model) string {
	ma, ok1 := a.(*marsModel)
	mb, ok2 := b.(*marsModel)
	if !ok1 || !ok2 {
		return fmt.Sprintf("not both MARS models: %T vs %T", a, b)
	}
	for j := range ma.nz.Mean {
		if math.Float64bits(ma.nz.Mean[j]) != math.Float64bits(mb.nz.Mean[j]) ||
			math.Float64bits(ma.nz.Std[j]) != math.Float64bits(mb.nz.Std[j]) {
			return fmt.Sprintf("normalizer differs at column %d", j)
		}
	}
	if len(ma.bases) != len(mb.bases) {
		return fmt.Sprintf("%d bases vs %d: %v vs %v", len(ma.bases), len(mb.bases), ma.bases, mb.bases)
	}
	for i := range ma.bases {
		if len(ma.bases[i]) != len(mb.bases[i]) {
			return fmt.Sprintf("basis %d: %v vs %v", i, ma.bases[i], mb.bases[i])
		}
		for k, h := range ma.bases[i] {
			g := mb.bases[i][k]
			if h.Var != g.Var || h.Sign != g.Sign || math.Float64bits(h.Knot) != math.Float64bits(g.Knot) {
				return fmt.Sprintf("basis %d: %v vs %v", i, ma.bases[i], mb.bases[i])
			}
		}
		if math.Float64bits(ma.coef[i]) != math.Float64bits(mb.coef[i]) {
			return fmt.Sprintf("coef %d: %v vs %v", i, ma.coef[i], mb.coef[i])
		}
	}
	return ""
}
