package matching

// Sparse maximum-weight bipartite matching by successive shortest
// augmenting paths on the edge list itself — no cost matrix at all. The
// binding engine's sparse candidate rounds have nU ~ the resource
// constraint, nV ~ the live node count, and only nU·k real edges, so
// even the dense Hungarian solve's nU×n matrix (n = max(nU,nV), built
// and searched in O(nU²·n)) holds nV/k cells per real edge; SSP runs in
// O(matches · E) with E the real edge count.
//
// Semantics match Solver.MaxWeight exactly: vertices may stay
// unmatched, only positive-weight edges are ever taken, and the
// returned total is the maximum achievable matching weight. Augmenting
// stops as soon as the shortest residual path cost turns non-negative,
// which is what makes this a maximum-weight matching rather than a
// min-cost maximum-cardinality assignment.
//
// The result is deterministic for a fixed edge slice: the SPFA relax
// order is fixed by edge insertion order and improvements are strict.
// Ties between equally-optimal matchings may resolve differently than
// the Hungarian solver's, so callers that need bit-identical results
// across solver choices must pin one solver (the binding engine only
// routes rounds to SSP in sparse mode, where no bit-identity is
// promised).

// sparseArc is one residual arc of the SSP network.
type sparseArc struct {
	to   int
	cap  int
	cost float64
}

// sparseState carries the reusable SSP scratch. It lives inside Solver
// so engine callers recycle one allocation set across merge rounds, and
// shrinks alongside the dense scratch (see Solver.grow).
type sparseState struct {
	arcs  []sparseArc
	head  [][]int // adjacency: node -> arc indices
	dist  []float64
	inQ   []bool
	prevA []int
	queue []int
	vID   []int // compacted V index -> caller V index
	vComp []int // caller V index -> compacted index +1 (0 = absent)
}

// MaxWeightSparse computes the same maximum-total-weight matching as
// MaxWeight, via successive shortest paths over the sparse edge list.
// Only V vertices incident to an edge are materialized, so cost scales
// with len(edges), not nV.
func (s *Solver) MaxWeightSparse(nU, nV int, edges []Edge) (matchU []int, total float64) {
	matchU = make([]int, nU)
	for i := range matchU {
		matchU[i] = -1
	}
	if nU == 0 || nV == 0 || len(edges) == 0 {
		return matchU, 0
	}
	st := &s.sp
	// Same shrink policy as the dense scratch: release oversized SSP
	// buffers so one huge round doesn't pin memory for the session.
	if need := 2 * (nU + 2*len(edges) + 2); cap(st.arcs) > shrinkFloorVec && cap(st.arcs) > shrinkFactor*need {
		st.arcs, st.head, st.dist, st.inQ, st.prevA, st.queue = nil, nil, nil, nil, nil, nil
	}
	if cap(st.vComp) > shrinkFloorVec && cap(st.vComp) > shrinkFactor*nV {
		st.vComp, st.vID = nil, nil
	}
	// Compact the V side to the vertices that actually carry edges, and
	// record the weight scale for the relaxation epsilon below.
	if cap(st.vComp) < nV {
		st.vComp = make([]int, nV)
	}
	st.vComp = st.vComp[:nV]
	st.vID = st.vID[:0]
	maxW := 0.0
	for _, e := range edges {
		if e.U < 0 || e.U >= nU || e.V < 0 || e.V >= nV {
			panic("matching: edge endpoint out of range")
		}
		if e.W <= 0 {
			continue
		}
		if e.W > maxW {
			maxW = e.W
		}
		if st.vComp[e.V] == 0 {
			st.vID = append(st.vID, e.V)
			st.vComp[e.V] = len(st.vID)
		}
	}
	nVc := len(st.vID)
	if nVc == 0 { // no positive-weight edges
		return matchU, 0
	}
	// Node numbering: 0..nU-1 left, nU..nU+nVc-1 compacted right,
	// then source S and sink T.
	S := nU + nVc
	T := S + 1
	n := T + 1
	st.arcs = st.arcs[:0]
	if cap(st.head) < n {
		st.head = make([][]int, n)
	}
	st.head = st.head[:n]
	for i := range st.head {
		st.head[i] = st.head[i][:0]
	}
	addArc := func(from, to int, capacity int, cost float64) {
		st.head[from] = append(st.head[from], len(st.arcs))
		st.arcs = append(st.arcs, sparseArc{to: to, cap: capacity, cost: cost})
		st.head[to] = append(st.head[to], len(st.arcs))
		st.arcs = append(st.arcs, sparseArc{to: from, cap: 0, cost: -cost})
	}
	for u := 0; u < nU; u++ {
		addArc(S, u, 1, 0)
	}
	for _, e := range edges {
		if e.W <= 0 {
			continue
		}
		addArc(e.U, nU+st.vComp[e.V]-1, 1, -e.W)
	}
	for vc := 0; vc < nVc; vc++ {
		addArc(nU+vc, T, 1, 0)
	}
	if cap(st.dist) < n {
		st.dist = make([]float64, n)
		st.inQ = make([]bool, n)
		st.prevA = make([]int, n)
	}
	st.dist = st.dist[:n]
	st.inQ = st.inQ[:n]
	st.prevA = st.prevA[:n]

	const inf = 1e300
	// eps guards every relaxation and the augmentation cutoff against
	// floating-point residue. Binding rounds carry heavily tied weights
	// (many edges share one memoized Eq. 4 value), so the residual
	// network is full of cycles whose exact cost is zero but whose
	// float sum is ~±1e-16·maxW; accepting those as "improvements"
	// plants cycles in the predecessor pointers and the augmentation
	// walk below never reaches S. Requiring every improvement to beat
	// eps keeps the predecessor graph a tree: any prevA cycle would
	// need a residual cycle costing < -(cycle length)·eps, which
	// successive shortest-path augmentation never creates.
	eps := maxW * 1e-12
	for {
		// SPFA shortest path S -> T on the residual network. Costs are
		// negative on unused real edges, so Bellman-Ford-style
		// relaxation (not Dijkstra) is required.
		for i := 0; i < n; i++ {
			st.dist[i] = inf
			st.inQ[i] = false
			st.prevA[i] = -1
		}
		st.dist[S] = 0
		st.queue = append(st.queue[:0], S)
		st.inQ[S] = true
		for len(st.queue) > 0 {
			x := st.queue[0]
			st.queue = st.queue[1:]
			st.inQ[x] = false
			dx := st.dist[x]
			for _, ai := range st.head[x] {
				a := &st.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				if nd := dx + a.cost; nd < st.dist[a.to]-eps {
					st.dist[a.to] = nd
					st.prevA[a.to] = ai
					if !st.inQ[a.to] {
						st.queue = append(st.queue, a.to)
						st.inQ[a.to] = true
					}
				}
			}
		}
		// Augment only while it increases total weight: a path with
		// non-negative residual cost would trade matched weight away
		// for cardinality.
		if st.prevA[T] == -1 || st.dist[T] >= -eps {
			break
		}
		for x, steps := T, 0; x != S; steps++ {
			if steps > n {
				panic("matching: augmenting path is cyclic")
			}
			ai := st.prevA[x]
			st.arcs[ai].cap--
			st.arcs[ai^1].cap++
			x = st.arcs[ai^1].to
		}
		total += -st.dist[T]
	}
	// Read the matching off the saturated U->V arcs. Forward arcs sit at
	// even indices; a used U->V arc has residual cap 0 and its reverse 1.
	for u := 0; u < nU; u++ {
		for _, ai := range st.head[u] {
			if ai%2 != 0 {
				continue
			}
			a := st.arcs[ai]
			if a.to >= nU && a.to < S && a.cap == 0 && st.arcs[ai^1].cap == 1 {
				matchU[u] = st.vID[a.to-nU]
				break
			}
		}
	}
	for _, v := range st.vID {
		st.vComp[v] = 0
	}
	return matchU, total
}

// sparseAutoMinN and sparseAutoDensity gate the automatic solver
// choice: below this problem size the dense Hungarian solve is cheap
// and (being the historical solver) keeps results bit-identical to
// every golden; above it, rounds whose real-edge density is low run the
// SSP path instead. Density is measured against n², the padded problem
// the threshold was drawn on; keeping it keeps every round's route.
const (
	sparseAutoMinN    = 512
	sparseAutoDensity = 0.10
)

// MaxWeightAuto picks the solver by problem shape: dense Hungarian for
// small or dense rounds (bit-identical to the historical behaviour),
// SSP for large sparse ones. The crossover is deliberately
// conservative — the Hungarian matrix has nU·max(nU,nV) cells, so a
// round of 16 U-nodes against 10k V-nodes with 10³ candidate edges
// builds 1.6·10⁵ cells for 10³ real ones, and every search step scans
// all 10⁴ columns.
func (s *Solver) MaxWeightAuto(nU, nV int, edges []Edge) (matchU []int, total float64) {
	n := nU
	if nV > n {
		n = nV
	}
	if n >= sparseAutoMinN && float64(len(edges)) < sparseAutoDensity*float64(n)*float64(n) {
		return s.MaxWeightSparse(nU, nV, edges)
	}
	return s.MaxWeight(nU, nV, edges)
}
