// Package ged computes Graph Edit Distance between logical dataflow
// DAGs. The edit operations follow §IV-C of the StreamTune paper: node
// insertion, node deletion, edge insertion, edge deletion, operator-type
// modification and edge-direction modification (a reversed edge costs
// one modification rather than a deletion plus an insertion).
//
// Distances are answered by a filter-and-verify pipeline:
//
//   - Filters (filters.go) compute cheap lower bounds (size,
//     label-multiset, degree-sequence) and a greedy-mapping upper bound
//     in O(n^2); when the bounds meet, or the lower bound already
//     exceeds a similarity threshold, no search runs at all.
//   - Verify is an exact best-first A* search over partial node
//     mappings with a label-multiset lower bound in the style of
//     AStar+-LSa, threshold pruning for similarity search, and the
//     greedy upper bound seeding the incumbent. The core uses bitset
//     adjacency, maintains the bound incrementally per state, and
//     recycles states through a free list so expansions do not
//     allocate.
//
// DistanceDirect bypasses both stages with the zero lower bound — the
// "directly computing GED" baseline of the paper's Fig. 11b.
//
// Dataflow DAGs are small (tens of nodes), so exact search is practical,
// exactly as the paper argues.
package ged

import (
	"math"
	"math/bits"
	"runtime/debug"
	"sort"

	"github.com/streamtune/streamtune/internal/dag"
)

// bitset is a little-endian fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)       { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// andCount returns |b AND o|.
func (b bitset) andCount(o bitset) int {
	c := 0
	for w := range b {
		c += bits.OnesCount64(b[w] & o[w])
	}
	return c
}

// graphView is the compact labeled-digraph view used by the solvers.
// out[i] holds the bit j for every edge i->j; in[j] holds the bit i for
// the same edge, giving O(n/64) column access.
type graphView struct {
	n      int
	labels []int
	out    []bitset
	in     []bitset
	outDeg []int
	inDeg  []int
	edges  int
	// labelHist counts labels over all nodes; its length is the label
	// domain size shared with any partner view via max().
	labelHist []int
	// sortedDeg is the ascending total-degree (in+out) sequence, pure
	// per-graph data precomputed so the per-pair degree filter is an
	// allocation-free merge scan.
	sortedDeg []int
}

func view(g *dag.Graph) *graphView {
	n := g.NumOperators()
	v := &graphView{
		n:      n,
		labels: make([]int, n),
		out:    make([]bitset, n),
		in:     make([]bitset, n),
		outDeg: make([]int, n),
		inDeg:  make([]int, n),
	}
	maxLabel := dag.NumOpTypes() - 1
	words := len(newBitset(n))
	slab := make(bitset, 2*n*words)
	for i := 0; i < n; i++ {
		v.labels[i] = int(g.OperatorAt(i).Type)
		if v.labels[i] > maxLabel {
			maxLabel = v.labels[i]
		}
		v.out[i] = slab[2*i*words : (2*i+1)*words]
		v.in[i] = slab[(2*i+1)*words : (2*i+2)*words]
	}
	for i := 0; i < n; i++ {
		for _, d := range g.Downstream(i) {
			v.out[i].set(d)
			v.in[d].set(i)
			v.outDeg[i]++
			v.inDeg[d]++
			v.edges++
		}
	}
	v.labelHist = make([]int, maxLabel+1)
	for _, l := range v.labels {
		v.labelHist[l]++
	}
	v.sortedDeg = make([]int, n)
	for i := 0; i < n; i++ {
		v.sortedDeg[i] = v.outDeg[i] + v.inDeg[i]
	}
	sort.Ints(v.sortedDeg)
	return v
}

// Unit costs for every edit operation (the paper counts operations).
const (
	costNode     = 1.0 // node insertion or deletion
	costEdge     = 1.0 // edge insertion or deletion
	costRelabel  = 1.0 // operator type modification
	costEdgeFlip = 1.0 // edge direction modification
)

// Distance computes the exact GED between g1 and g2 through the
// filter-and-verify pipeline: if the filter bounds meet, the distance is
// returned without opening the search queue; otherwise the AStar+-LS
// search runs with the greedy upper bound as the incumbent.
func Distance(g1, g2 *dag.Graph) float64 {
	return distanceViews(view(g1), view(g2))
}

func distanceViews(v1, v2 *graphView) float64 {
	d, _ := pipelineViews(v1, v2)
	return d
}

// pipelineViews is the shared filter-and-verify core behind Distance
// and PipelineDistance: filter check, counter accounting, and the
// incumbent-seeded exact search.
func pipelineViews(v1, v2 *graphView) (float64, SearchStats) {
	s := newSolver(v1, v2, true)
	lb, ub := lowerBoundViews(v1, v2), s.greedyUpper()
	stats := SearchStats{LowerBound: lb, UpperBound: ub}
	if lb == ub {
		stats.Filtered = true
		counters.FilterAnswered.Add(1)
		return ub, stats
	}
	d := s.search(math.Inf(1), ub)
	counters.Searched.Add(1)
	counters.Expanded.Add(uint64(s.stats.Expanded))
	stats.Expanded = s.stats.Expanded
	return d, stats
}

// DistanceDirect computes the exact GED with the zero heuristic and no
// filtering — the "directly computing GED" baseline. It explores far
// more states.
func DistanceDirect(g1, g2 *dag.Graph) float64 {
	s := newSolver(view(g1), view(g2), false)
	return s.search(math.Inf(1), math.Inf(1))
}

// WithinThreshold reports whether ged(g1, g2) <= tau, pruning the search
// at tau. On a hit the exact distance is returned; on a miss the second
// result is a lower bound on the true distance (always > tau), from the
// filters when they already exceed tau and from the pruned search
// frontier otherwise.
func WithinThreshold(g1, g2 *dag.Graph, tau float64) (bool, float64) {
	return withinViews(view(g1), view(g2), tau)
}

func withinViews(v1, v2 *graphView, tau float64) (bool, float64) {
	lb := lowerBoundViews(v1, v2)
	if lb > tau {
		counters.FilterAnswered.Add(1)
		return false, lb
	}
	s := newSolver(v1, v2, true)
	ub := s.greedyUpper()
	if lb == ub {
		counters.FilterAnswered.Add(1)
		return true, ub
	}
	d := s.search(tau, ub)
	counters.Searched.Add(1)
	counters.Expanded.Add(uint64(s.stats.Expanded))
	return d <= tau, d
}

// WithinThresholdSearchOnly is WithinThreshold without the filter stage:
// the raw threshold-pruned AStar+-LS search of the seed implementation.
// It is kept as the differential-test reference and benchmark baseline
// for the filter-and-verify pipeline.
func WithinThresholdSearchOnly(g1, g2 *dag.Graph, tau float64) (bool, float64) {
	s := newSolver(view(g1), view(g2), true)
	d := s.search(tau, math.Inf(1))
	if d <= tau {
		return true, d
	}
	return false, d
}

// SearchStats counts search effort and records the filter outcome for a
// single pair.
type SearchStats struct {
	// Expanded is the number of A* states expanded (zero when the
	// filters answered the pair).
	Expanded int
	// Filtered reports whether the pair was answered by the filter
	// stage alone, without opening the search queue.
	Filtered bool
	// LowerBound and UpperBound are the filter bounds computed for the
	// pair (valid only for the pipeline entry points).
	LowerBound, UpperBound float64
}

// DistanceWithStats runs the raw A* solver (no filter stage) and reports
// search effort; useBound selects the label-multiset lower bound versus
// the zero heuristic. It is the primitive behind the Fig. 11b solver
// comparison.
func DistanceWithStats(g1, g2 *dag.Graph, useBound bool) (float64, SearchStats) {
	s := newSolver(view(g1), view(g2), useBound)
	d := s.search(math.Inf(1), math.Inf(1))
	return d, *s.stats
}

// PipelineDistance is Distance but also reports the filter outcome and
// search effort of the pair.
func PipelineDistance(g1, g2 *dag.Graph) (float64, SearchStats) {
	return pipelineViews(view(g1), view(g2))
}

// state is a partial mapping of g1's nodes [0..k) onto g2 nodes or -1
// (deletion). States are arena-allocated and recycled through the
// solver's free list; the bound bookkeeping (unused-label histogram and
// unmapped-region edge counts) is carried per state and updated
// incrementally instead of recomputed from scratch.
type state struct {
	next    *state // free-list link
	g, f    float64
	k       int32
	rem2    int32 // unused g2 nodes
	e2      int32 // g2 edges with both endpoints unused
	eUsed   int32 // g2 edges with both endpoints used
	mapping []int32
	used    bitset
	hist2   []int16 // label counts over unused g2 nodes
}

// solver runs one exact search over a pair of graph views.
type solver struct {
	v1, v2   *graphView
	L        int // label domain size
	useBound bool
	words2   int

	// suf1 is the flattened (n1+1) x L suffix label histogram of g1:
	// suf1[k*L+l] counts label l among g1 nodes [k, n1). sufE1[k] counts
	// g1 edges with both endpoints in [k, n1). maskLow[k] has bits
	// [0, k) set. All are immutable after construction, so every state's
	// bound is a table lookup plus its own incremental histogram. The
	// bound tables are built lazily by search(): filter-answered pairs
	// (the majority at corpus scale) never pay for them.
	suf1    []int16
	sufE1   []int32
	maskLow []bitset

	heap   []*state
	free   *state
	states int // states allocated (the peak live count)
	stats  *SearchStats
}

func newSolver(v1, v2 *graphView, useBound bool) *solver {
	L := len(v1.labelHist)
	if len(v2.labelHist) > L {
		L = len(v2.labelHist)
	}
	s := &solver{
		v1: v1, v2: v2, L: L, useBound: useBound,
		words2: len(newBitset(v2.n)),
		stats:  &SearchStats{},
	}
	n1 := v1.n
	s.maskLow = make([]bitset, n1+1)
	words1 := len(newBitset(n1))
	maskSlab := make(bitset, (n1+1)*words1)
	for k := 0; k <= n1; k++ {
		m := maskSlab[k*words1 : (k+1)*words1]
		for i := 0; i < k; i++ {
			m.set(i)
		}
		s.maskLow[k] = m
	}
	return s
}

// buildBoundTables fills the suffix label histograms and suffix edge
// counts consumed by bound(). Called once per solver, and only when a
// search actually opens (never for filter-answered pairs).
func (s *solver) buildBoundTables() {
	if s.suf1 != nil {
		return
	}
	v1, n1, L := s.v1, s.v1.n, s.L
	s.suf1 = make([]int16, (n1+1)*L)
	for k := n1 - 1; k >= 0; k-- {
		copy(s.suf1[k*L:(k+1)*L], s.suf1[(k+1)*L:(k+2)*L])
		s.suf1[k*L+v1.labels[k]]++
	}
	s.sufE1 = make([]int32, n1+1)
	for k := n1 - 1; k >= 0; k-- {
		e := s.sufE1[k+1]
		for y := k; y < n1; y++ {
			if v1.out[k].test(y) {
				e++
			}
			if v1.out[y].test(k) && y != k {
				e++
			}
		}
		s.sufE1[k] = e
	}
}

// newState returns a blank state from the free list, allocating backing
// storage only when the list is empty (so allocation is bounded by the
// peak number of live states, not the number of expansions).
func (s *solver) newState() *state {
	if st := s.free; st != nil {
		s.free = st.next
		st.next = nil
		return st
	}
	s.states++
	return &state{
		mapping: make([]int32, s.v1.n),
		used:    make(bitset, s.words2),
		hist2:   make([]int16, s.L),
	}
}

func (s *solver) release(st *state) {
	st.next = s.free
	s.free = st
}

// bound is the LS lower bound at depth k with the given unused-label
// histogram and both-unused edge count of g2: the multiset edit distance
// between the unmapped labels plus an unmapped-region edge-count bound.
// It matches the seed labelSetBound value exactly.
func (s *solver) bound(k int, hist2 []int16, rem2 int32, e2 int32) float64 {
	rem1 := s.v1.n - k
	row := s.suf1[k*s.L : (k+1)*s.L]
	common := 0
	for l := 0; l < s.L; l++ {
		m := int(row[l])
		if h := int(hist2[l]); h < m {
			m = h
		}
		common += m
	}
	small := rem1
	if int(rem2) < small {
		small = int(rem2)
	}
	nodeBound := float64(small-common)*costRelabel + math.Abs(float64(rem1-int(rem2)))*costNode
	edgeBound := math.Abs(float64(s.sufE1[k]-e2)) * costEdge
	return nodeBound + edgeBound
}

// releaseStates is the number of allocated states past which a finished
// search hands its memory back to the OS. A search over 13-operator jobs
// can hold ~700k states (~150 MB) for half a second. Left to the GC
// pacer, which sized its next goal while they were live, that memory
// stays resident for seconds after the search, long after the service's
// next requests stopped needing it.
const releaseStates = 1 << 17

// search runs searchStates and, after a search that allocated more than
// releaseStates states, returns their memory to the OS.
func (s *solver) search(tau, seedUB float64) float64 {
	d := s.searchStates(tau, seedUB)
	if s.states > releaseStates {
		s.heap, s.free = nil, nil
		debug.FreeOSMemory()
	}
	return d
}

// searchStates runs best-first A* over node-mapping prefixes. States map g1
// nodes in index order; when all g1 nodes are mapped, remaining g2 nodes
// are insertions and the edge cost is finalized exactly. seedUB, when
// finite, must be an achievable edit cost (it becomes the incumbent).
// The return value is the exact distance when it is <= tau; otherwise it
// is a lower bound on the distance (itself > tau).
func (s *solver) searchStates(tau, seedUB float64) float64 {
	v1, v2 := s.v1, s.v2
	if s.useBound {
		s.buildBoundTables()
	}
	root := s.newState()
	root.k, root.g = 0, 0
	root.rem2 = int32(v2.n)
	root.e2 = int32(v2.edges)
	root.eUsed = 0
	for w := range root.used {
		root.used[w] = 0
	}
	for l := range root.hist2 {
		root.hist2[l] = 0
	}
	for _, l := range v2.labels {
		root.hist2[l]++
	}
	root.f = 0
	if s.useBound {
		root.f = s.bound(0, root.hist2, root.rem2, root.e2)
	}
	if root.f > tau {
		// Mirrors the seed solver: the root bound already proves the
		// pair is beyond the threshold, and is itself a lower bound.
		return root.f
	}
	s.heap = s.heap[:0]
	s.push(root)

	best := seedUB
	// minCut tracks the smallest f discarded at the threshold, so a
	// pruned search still reports a valid lower bound on the distance.
	minCut := math.Inf(1)

	for len(s.heap) > 0 {
		cur := s.pop()
		if cur.f >= best {
			// Best-first: the incumbent is achievable, so anything at or
			// above it cannot improve the optimum.
			s.release(cur)
			continue
		}
		s.stats.Expanded++
		k := int(cur.k)
		if k == v1.n {
			total := cur.g + float64(cur.rem2)*costNode + float64(int32(v2.edges)-cur.eUsed)*costEdge
			if total < best {
				best = total
			}
			if best <= cur.f {
				s.release(cur)
				return best
			}
			s.release(cur)
			continue
		}
		i := k
		// Option A: map node i to each unused g2 node.
		for j := 0; j < v2.n; j++ {
			if cur.used.test(j) {
				continue
			}
			g := cur.g + s.substCost(cur, i, j)
			outToUsed := int32(v2.out[j].andCount(cur.used))
			inToUsed := int32(v2.in[j].andCount(cur.used))
			e2 := cur.e2 - int32(v2.outDeg[j]) + outToUsed - int32(v2.inDeg[j]) + inToUsed
			f := g
			if s.useBound {
				lj := v2.labels[j]
				cur.hist2[lj]--
				f += s.bound(k+1, cur.hist2, cur.rem2-1, e2)
				cur.hist2[lj]++
			}
			if f >= best {
				continue
			}
			if f > tau {
				if f < minCut {
					minCut = f
				}
				continue
			}
			child := s.newState()
			copy(child.mapping, cur.mapping)
			child.mapping[k] = int32(j)
			copy(child.used, cur.used)
			child.used.set(j)
			copy(child.hist2, cur.hist2)
			child.hist2[v2.labels[j]]--
			child.k = cur.k + 1
			child.rem2 = cur.rem2 - 1
			child.e2 = e2
			child.eUsed = cur.eUsed + outToUsed + inToUsed
			child.g, child.f = g, f
			s.push(child)
		}
		// Option B: delete node i.
		g := cur.g + costNode + s.deleteEdgeCost(k, i)
		f := g
		if s.useBound {
			f += s.bound(k+1, cur.hist2, cur.rem2, cur.e2)
		}
		switch {
		case f >= best:
		case f > tau:
			if f < minCut {
				minCut = f
			}
		default:
			child := s.newState()
			copy(child.mapping, cur.mapping)
			child.mapping[k] = -1
			copy(child.used, cur.used)
			copy(child.hist2, cur.hist2)
			child.k = cur.k + 1
			child.rem2 = cur.rem2
			child.e2 = cur.e2
			child.eUsed = cur.eUsed
			child.g, child.f = g, f
			s.push(child)
		}
		s.release(cur)
	}
	if best > tau && minCut < best {
		// Every completion was cut at the threshold or dominated by the
		// incumbent, so min(minCut, best) lower-bounds the distance.
		return minCut
	}
	return best
}

// substCost is the incremental cost of mapping g1 node i onto g2 node j:
// relabeling if types differ, plus edge edits against all previously
// mapped nodes (a reversed edge counts one direction modification).
func (s *solver) substCost(cur *state, i, j int) float64 {
	v1, v2 := s.v1, s.v2
	c := 0.0
	if v1.labels[i] != v2.labels[j] {
		c += costRelabel
	}
	k := int(cur.k)
	for a := 0; a < k; a++ {
		b := cur.mapping[a]
		fwd1, bwd1 := v1.out[a].test(i), v1.out[i].test(a)
		var fwd2, bwd2 bool
		if b >= 0 {
			fwd2, bwd2 = v2.out[b].test(j), v2.out[j].test(int(b))
		}
		switch {
		case fwd1 == fwd2 && bwd1 == bwd2:
		case fwd1 != fwd2 && bwd1 != bwd2:
			// Either a flip (one edge each, opposite directions) or two
			// separate edits.
			if (fwd1 || bwd1) && (fwd2 || bwd2) {
				c += costEdgeFlip
			} else {
				c += 2 * costEdge
			}
		default:
			c += costEdge
		}
	}
	return c
}

// deleteEdgeCost is the cost of the edges between deleted g1 node i and
// all previously mapped g1 nodes [0, k).
func (s *solver) deleteEdgeCost(k, i int) float64 {
	mask := s.maskLow[k]
	n := s.v1.in[i].andCount(mask) + s.v1.out[i].andCount(mask)
	return float64(n) * costEdge
}

// Binary min-heap on f, the single priority-queue implementation of the
// package.
func (s *solver) push(st *state) { s.heap = heapPush(s.heap, st) }
func (s *solver) pop() *state {
	var st *state
	s.heap, st = heapPop(s.heap)
	return st
}

func heapPush(h []*state, st *state) []*state {
	h = append(h, st)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].f <= h[i].f {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func heapPop(h []*state) ([]*state, *state) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].f < h[small].f {
			small = l
		}
		if r < n && h[r].f < h[small].f {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}
