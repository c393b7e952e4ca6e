package cdfg

import "fmt"

// BalancedSchedule performs resource-constrained scheduling to a target
// length in the force-directed style of Paulin and Knight (the scheduler
// family the LOPASS system uses): operation time frames come from
// ASAP/ALAP analysis at the target length, zero-slack operations are
// issued when forced, and remaining resource slots are filled only up to
// a per-class distribution quota so operations spread evenly over the
// schedule instead of packing into the earliest steps. Both binders
// consume the resulting schedule, mirroring the paper's setup where the
// schedule comes from LOPASS and is reused by HLPower.
//
// The target is clamped below by the critical path; if the resource
// constraint makes the target infeasible the schedule is lengthened
// until the forced operations fit.
func BalancedSchedule(g *Graph, rc ResourceConstraint, targetLen int) (*Schedule, error) {
	asap := ASAP(g, Library{})
	if targetLen < asap.Len {
		targetLen = asap.Len
	}
	for _, id := range g.Ops() {
		class := g.Nodes[id].Kind.FUClass()
		if rc.Limit(class) <= 0 {
			return nil, fmt.Errorf("cdfg: resource constraint has no %s units", class)
		}
	}
	// Try increasing lengths until the forced sets fit the constraint.
	for l := targetLen; l <= targetLen+4*len(g.Nodes)+16; l++ {
		if s, ok := balancedAttempt(g, rc, l); ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("cdfg: balanced scheduling did not converge for %s", g.Name)
}

func balancedAttempt(g *Graph, rc ResourceConstraint, targetLen int) (*Schedule, bool) {
	alap, err := ALAP(g, Library{}, targetLen)
	if err != nil {
		return nil, false
	}
	s := &Schedule{Step: make([]int, len(g.Nodes)), Len: targetLen}
	scheduled := make([]bool, len(g.Nodes))
	for _, id := range g.Inputs {
		scheduled[id] = true
	}
	remaining := map[bool]int{} // isMult -> count
	for _, id := range g.Ops() {
		remaining[g.Nodes[id].Kind == KindMult]++
	}

	for t := 1; t <= targetLen; t++ {
		// Ready operations, most urgent first.
		var ready []int
		for _, id := range g.Ops() {
			if scheduled[id] {
				continue
			}
			ok := true
			for _, a := range g.Nodes[id].Args {
				if !scheduled[a] || (g.Nodes[a].Kind.IsOp() && s.Step[a] >= t) {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, id)
			}
		}
		sortByKey(ready, func(id int) int { return alap.Step[id]*len(g.Nodes) + id })

		stepsLeft := targetLen - t + 1
		used := map[bool]int{}
		for _, id := range ready {
			isMult := g.Nodes[id].Kind == KindMult
			limit := rc.Add
			if isMult {
				limit = rc.Mult
			}
			quota := (remaining[isMult] + stepsLeft - 1) / stepsLeft
			if quota > limit {
				quota = limit
			}
			forced := alap.Step[id] <= t
			if forced {
				if used[isMult] >= limit {
					return nil, false // constraint cannot absorb the forced set
				}
			} else if used[isMult] >= quota {
				continue
			}
			used[isMult]++
			s.Step[id] = t
			scheduled[id] = true
			remaining[isMult]--
		}
	}
	for _, id := range g.Ops() {
		if !scheduled[id] {
			return nil, false
		}
	}
	return s, true
}
