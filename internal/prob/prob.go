// Package prob implements signal probability and switching-activity
// (transition-density) estimation for Boolean functions and logic
// networks, following the lineage the paper builds on (§4):
//
//   - Najm's transition density via Boolean differences (Eq. 1) [17],
//   - the Chou–Roy pairwise model that accounts for simultaneous input
//     switching, s(y) = 2(P(y(t)) − P(y(t)y(t+T))) (Eq. 2) [7].
//
// All computations treat fanins as independent, which is the standard
// assumption of these estimators: reconvergent-fanout correlation is
// not corrected. The glitch package layers the unit-delay time
// dimension on top.
package prob

import (
	"repro/internal/bitvec"
)

// SignalProb returns P(f = 1) given independent input probabilities p,
// by exact enumeration of the on-set.
func SignalProb(f *bitvec.TruthTable, p []float64) float64 {
	sc := scratchPool.Get().(*Scratch)
	v := Characterize(f).SignalProb(p, sc)
	scratchPool.Put(sc)
	return v
}

// NajmActivity returns the transition density of f under Najm's model
// (paper Eq. 1): s(y) = sum_i P(df/dx_i) * s(x_i). It ignores
// simultaneous switching and so overestimates activity for wide gates.
func NajmActivity(f *bitvec.TruthTable, p, s []float64) float64 {
	sc := scratchPool.Get().(*Scratch)
	v := Characterize(f).NajmActivity(p, s, sc)
	scratchPool.Put(sc)
	return v
}

// clamp01 forces a propagated probability back into [0,1]. SignalProb
// sums products of independent marginals, so rounding can overshoot the
// unit interval by an ulp or two.
func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// clampActivity limits s so the pairwise joint distribution stays valid:
// s/2 <= min(p, 1-p). Estimated activities occasionally violate this by
// rounding; clamping keeps PairProb a true probability. p is clamped
// into [0,1] first — a propagated probability of 1+ε would otherwise
// make the limit negative and the resulting joint invalid.
func clampActivity(p, s float64) float64 {
	p = clamp01(p)
	limit := 2 * minf(p, 1-p)
	if s > limit {
		return limit
	}
	if s < 0 {
		return 0
	}
	return s
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// PairProb returns P(y(t) = 1 AND y(t+T) = 1) under the Chou–Roy model:
// each input i is a two-state process with marginal p[i] and transition
// probability s[i] per unit period, independent across inputs.
func PairProb(f *bitvec.TruthTable, p, s []float64) float64 {
	sc := scratchPool.Get().(*Scratch)
	v := Characterize(f).PairProb(p, s, sc)
	scratchPool.Put(sc)
	return v
}

// ChouRoyActivity returns the normalized switching activity of f under
// the Chou–Roy simultaneous-switching model (paper Eq. 2):
// s(y) = 2 (P(y) − P(y(t) y(t+T))).
func ChouRoyActivity(f *bitvec.TruthTable, p, s []float64) float64 {
	sc := scratchPool.Get().(*Scratch)
	v := Characterize(f).ChouRoyActivity(p, s, sc)
	scratchPool.Put(sc)
	return v
}
