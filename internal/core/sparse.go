package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/binding"
	"repro/internal/matching"
	"repro/internal/satable"
)

// Candidate rows: the binding engine's edge store.
//
// Every U-node keeps a row of candidate partners with their scored
// Eq. 4 weights. By default a row has no bound: it holds every
// compatible V-node, which is exactly the edge set a full per-round
// rescore evaluates. That is O(|U|·|V|) entries and a full-row rescore
// — |V| SA-shape evaluations — every time a U-node merges. At 10k
// operations both the resident edges and the per-round rescore dwarf
// the useful work: a merge round only ever commits a handful of pairs,
// and the pairs worth committing are overwhelmingly those whose merged
// multiplexers stay small (Eq. 4 rewards small SA and balanced muxes,
// and both grow with the merged port sets).
//
// Bounded rows (the scale path) therefore keep, per U-node, only the k
// most promising partners:
//
//   - Admission is by a cheap O(1) score — the candidate's cached
//     distinct-source count |L|+|R| (an upper bound on its contribution
//     to the merged mux sizes) — after the exact compatibility filter
//     (same class, disjoint occupation intervals). Ties break on
//     ascending node id, so admission is a total order and the row is
//     deterministic regardless of scan order.
//   - Only admitted pairs are scored (mux shape + SA lookup + Eq. 4),
//     so per-round scoring cost is O(|U|·k), not O(|U|·|V|).
//   - Incremental repair: a merge invalidates exactly the survivor's
//     row (its occupation and ports changed) and any row holding the
//     absorbed node as a candidate (its slot freed). Only those rows
//     re-admit; every other row is reused verbatim, including its
//     scored weights. Candidate scores of live nodes never change
//     (only merge survivors change shape, and survivors are U-side,
//     never candidates), so an untouched row is still the true top-k.
//
// Invariants this file maintains:
//
//  1. Admitted candidates are always a subset of the exactly-compatible
//     pairs; no occupation-overlap or cross-class edge is ever emitted.
//  2. Rows with no bound — and bounded rows whose k is at least the
//     live candidate count, with the shape clamp off — admit every
//     compatible pair, so the emitted edge set, weights, and therefore
//     the binding are bit-identical to a full per-round rescore
//     (oracle-tested on the seed benchmarks).
//  3. The SA shape clamp (shapeCap) only applies to bounded rows, and
//     by default only when the bound itself auto-engaged; rows with no
//     bound and explicitly bounded runs evaluate Eq. 4 on the true
//     merged shape.

// candEdge is one admitted candidate of a U-node's row.
type candEdge struct {
	vid int // candidate node id (stable identity)
	w   float64
}

// candRow is a U-node's bounded candidate list, ascending by vid.
type candRow struct {
	c []candEdge
}

// admitEnt is a bounded-selection heap entry: worst (highest score,
// then highest vid) at the root so better candidates displace it.
type admitEnt struct {
	score, vid int
}

func admitWorse(a, b admitEnt) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.vid > b.vid
}

// admit selects u's top-k compatible candidates from vList by ascending
// (pcost, id): a bounded max-heap keeps the k best seen, and the root —
// the worst survivor — gates admission in O(1) for the common reject.
func (e *engine) admit(u *fuNode, vList []*fuNode) []admitEnt {
	h := e.heap[:0]
	for _, v := range vList {
		if u.kind != v.kind || u.occ.Intersects(v.occ) {
			continue
		}
		ent := admitEnt{score: v.pcost, vid: v.id}
		if len(h) < e.k {
			h = append(h, ent)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !admitWorse(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			continue
		}
		if !admitWorse(h[0], ent) {
			continue // ent is no better than the current worst
		}
		// Replace the root and sift down.
		h[0] = ent
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(h) && admitWorse(h[l], h[worst]) {
				worst = l
			}
			if r < len(h) && admitWorse(h[r], h[worst]) {
				worst = r
			}
			if worst == i {
				break
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	e.heap = h
	return h
}

// scoreEdgesSparse assembles the round's weighted edges: it reconciles
// each U-node's candidate row (reusing untouched rows, re-admitting
// invalidated ones), scores only fresh pairs — shapes in parallel,
// weights serially, under the optional shape clamp — and emits the
// round's edge list in the fixed (U order, ascending vid) order,
// identical at every worker count.
func (e *engine) scoreEdgesSparse(uList, vList []*fuNode) (edges []matching.Edge, scored, reused int, err error) {
	e.round++
	for vi, v := range vList {
		v.vStamp = e.round
		v.vIdx = vi
	}
	type slot struct {
		u, v   *fuNode
		row    *candRow
		idx    int // position in row.c to receive the weight
		kl, kr int
	}
	var pending []slot
	for _, u := range uList {
		row := e.rows[u.id]
		if row != nil {
			valid := true
			for i := range row.c {
				if v := e.byID[row.c[i].vid]; v.dead || v.vStamp != e.round {
					valid = false
					break
				}
			}
			if valid {
				reused += len(row.c)
				continue
			}
		}
		// Re-admission. Weights scored for candidates that survive in
		// the new row are still valid (neither endpoint changed shape —
		// a changed u has no row at all) and are carried over.
		var oldW map[int]float64
		if row != nil {
			oldW = make(map[int]float64, len(row.c))
			for i := range row.c {
				if v := e.byID[row.c[i].vid]; !v.dead && v.vStamp == e.round {
					oldW[row.c[i].vid] = row.c[i].w
				}
			}
		}
		admitted := e.admit(u, vList)
		nr := &candRow{c: make([]candEdge, 0, len(admitted))}
		for _, ent := range admitted {
			nr.c = append(nr.c, candEdge{vid: ent.vid})
		}
		sort.Slice(nr.c, func(i, j int) bool { return nr.c[i].vid < nr.c[j].vid })
		for i := range nr.c {
			if w, ok := oldW[nr.c[i].vid]; ok {
				nr.c[i].w = w
				reused++
				continue
			}
			pending = append(pending, slot{u: u, v: e.byID[nr.c[i].vid], row: nr, idx: i})
		}
		e.rows[u.id] = nr
	}
	// Parallel pure phase: merged mux shapes for fresh pairs only.
	// Compatibility was already established during admission.
	parallelDo(len(pending), e.opt.Workers, func(i int) {
		sl := &pending[i]
		kl, kr := binding.MergedMuxSizesSets(sl.u.ports, sl.v.ports)
		if e.shapeCap > 0 {
			if kl > e.shapeCap {
				kl = e.shapeCap
			}
			if kr > e.shapeCap {
				kr = e.shapeCap
			}
		}
		sl.kl, sl.kr = kl, kr
	})
	// Serial aggregation: distinct unmemoized shapes in first-seen
	// order, one batched SA fetch, Eq. 4 through the shape memo.
	var missing []satable.Key
	seen := map[weightKey]bool{}
	for i := range pending {
		sl := &pending[i]
		k := weightKey{sl.u.kind, sl.kl, sl.kr}
		if _, ok := e.memo[k]; ok || seen[k] {
			continue
		}
		seen[k] = true
		missing = append(missing, satable.Key{Kind: k.kind, KL: k.kl, KR: k.kr})
	}
	if len(missing) > 0 {
		vals, berr := e.opt.Table.GetBatch(context.Background(), missing, e.opt.Workers)
		if berr != nil {
			return nil, 0, 0, fmt.Errorf("core: SA lookup: %w", berr)
		}
		for i, key := range missing {
			e.memo[weightKey{key.Kind, key.KL, key.KR}] = e.weightFromShape(key.Kind, key.KL, key.KR, vals[i])
		}
	}
	for i := range pending {
		sl := &pending[i]
		sl.row.c[sl.idx].w = e.memo[weightKey{sl.u.kind, sl.kl, sl.kr}]
		scored++
	}
	// Emission in fixed (U order, ascending vid) order. vList is in
	// ascending id order too, so this matches a full rescore's (U, V)
	// edge order exactly when every compatible pair is admitted.
	for ui, u := range uList {
		row := e.rows[u.id]
		if row == nil {
			continue
		}
		for i := range row.c {
			v := e.byID[row.c[i].vid]
			edges = append(edges, matching.Edge{U: ui, V: v.vIdx, W: row.c[i].w})
		}
	}
	return edges, scored, reused, nil
}

// memFootprint estimates the resident candidate-row size: entry count
// and approximate bytes (per-entry cost plus per-row overhead). It is
// the number the Report's memory accounting — and the scale
// benchmarks' memory-budget gate — reads.
func (e *engine) memFootprint() (entries int, bytes int64) {
	for _, row := range e.rows {
		entries += len(row.c)
		bytes += 64 + int64(cap(row.c))*16
	}
	return entries, bytes
}
