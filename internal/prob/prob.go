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
