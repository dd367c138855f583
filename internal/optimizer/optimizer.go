// Package optimizer implements a System-R style dynamic-programming query
// optimizer over the shared cost model: bottom-up enumeration of connected
// join subsets with hash-join, merge-join, nested-loop and index-nested-loop
// physical alternatives. The paper treats the optimizer as a black box
// mapping an ESS location q to the optimal plan Pq and its cost Cost(Pq,q)
// (Sec 2.2); this package is that box, with predicate selectivities injected
// through cost.Location.
package optimizer

import (
	"fmt"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
)

// Optimizer finds optimal plans for one query under one cost model.
// It is safe for sequential reuse across many locations; the DP scratch
// tables are retained between calls to avoid reallocation.
//
// Equal plans are returned as one *plan.Plan: the optimizer interns every
// subtree the DP chooses, and builds a plan tree only for a root it has
// not returned before. Plans are immutable, so sharing them is safe.
type Optimizer struct {
	model *cost.Model
	q     *query.Query
	n     int

	// Static per-subset precomputation: internalMask[s] has bit j set for
	// each join j with both sides inside subset s, and connected[s] reports
	// whether s's join graph is connected — exactly the subsets the DP
	// finds a plan for, since it builds no cross products.
	internalMask []uint64
	connected    []bool
	// splits[splitAt[s]:splitAt[s+1]] lists the ordered splits of subset s
	// that the DP costs: both sides connected and at least one join
	// crossing, in the order the submask walk of s meets them.
	splits  []split
	splitAt []int32

	// Per-call scratch, reused across Optimize calls: Optimize is the DP
	// over the one-point grid {at}, so each subset's table is the single
	// entry entries[s].
	entries []dpEntry
	point   filler

	// The intern table: an id per distinct chosen subtree, its plan node,
	// and the plan returned for each id that was a root. Optimize resets it
	// wholesale rather than grow past internCap ids (internLimit; tests
	// shrink it).
	internIDs   map[internKey]int32
	internNodes []*plan.Node
	internPlans []*plan.Plan
	internCap   int
}

// split is one ordered split of a subset: s1 is the probe (outer) side and
// s2 the build (inner) side; cross holds the joins crossing it, as a
// bitmask of join IDs.
type split struct {
	s1, s2 int32
	cross  uint64
}

// dpEntry is the DP table slot for one relation subset at one grid point of
// its epps.
type dpEntry struct {
	nc cost.NodeCost
	// sorted is SortNC(nc), the subset sorted as a merge-join input,
	// computed once when the entry is finalised.
	sorted cost.NodeCost
	// Decision record for plan reconstruction: the joins applied at the
	// node, as a bitmask of join IDs; the outer (left) and inner (right)
	// child subsets, and the children's entries in their tables.
	joins       uint64
	kind        plan.OpKind
	left, right int32
	li, ri      int32
	rel         int32 // scan relation for singletons
}

// internKey identifies a chosen subtree exactly: a scan by its relation, a
// join by its operator, its join mask and its children's intern ids. The
// children's ids identify their subtrees by induction, so equal keys mean
// equal trees and no tiebreak is needed.
type internKey struct {
	kind        plan.OpKind
	rel         int32
	joins       uint64
	left, right int32
}

// internLimit bounds the intern table of an optimizer's Optimize calls.
// A Session's long-lived shared optimizer resets past the limit, as
// Shared's memo does, which costs only rebuilding plan trees. OptimizeGrid
// does not reset it: its ids die with the build's optimizer.
const internLimit = 1 << 14

// maxRelations bounds the DP table size (2^16 subsets).
const maxRelations = 16

// maxJoins bounds the join predicates to the bits of a join mask.
const maxJoins = 64

// New builds an optimizer for the model's query.
func New(m *cost.Model) (*Optimizer, error) {
	q := m.Query
	n := len(q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: query has no relations")
	}
	if n > maxRelations {
		return nil, fmt.Errorf("optimizer: %d relations exceeds the %d-relation limit", n, maxRelations)
	}
	if len(q.Joins) > maxJoins {
		return nil, fmt.Errorf("optimizer: %d joins exceeds the %d-join limit", len(q.Joins), maxJoins)
	}
	o := &Optimizer{model: m, q: q, n: n, internCap: internLimit}
	size := 1 << uint(n)
	adj := make([]int, n) // relations joined to each relation
	for _, j := range q.Joins {
		adj[j.LeftRel] |= 1 << uint(j.RightRel)
		adj[j.RightRel] |= 1 << uint(j.LeftRel)
	}
	o.internalMask = make([]uint64, size)
	o.connected = make([]bool, size)
	for s := 1; s < size; s++ {
		for _, j := range q.Joins {
			if s&(1<<uint(j.LeftRel)) != 0 && s&(1<<uint(j.RightRel)) != 0 {
				o.internalMask[s] |= 1 << uint(j.ID)
			}
		}
		// Flood s from its lowest relation along the joins inside it.
		reach, next := 0, s&-s
		for next != reach {
			reach = next
			for r := reach; r != 0; r &= r - 1 {
				next |= adj[bits.TrailingZeros(uint(r))] & s
			}
		}
		o.connected[s] = reach == s
	}
	o.splitAt = make([]int32, size+1)
	for s := 1; s < size; s++ {
		o.splitAt[s] = int32(len(o.splits))
		if s&(s-1) == 0 || !o.connected[s] {
			continue
		}
		for s1 := (s - 1) & s; s1 > 0; s1 = (s1 - 1) & s {
			s2 := s &^ s1
			if !o.connected[s1] || !o.connected[s2] {
				continue
			}
			// Join predicates crossing the split: internal to s but not to
			// either side. A split none crosses would be a cross product,
			// which the DP does not build.
			if cross := o.internalMask[s] &^ (o.internalMask[s1] | o.internalMask[s2]); cross != 0 {
				o.splits = append(o.splits, split{s1: int32(s1), s2: int32(s2), cross: cross})
			}
		}
	}
	o.splitAt[size] = int32(len(o.splits))
	o.entries = make([]dpEntry, size)
	tabs := make([]table, size)
	for s := range tabs {
		tabs[s].entries = o.entries[s : s+1 : s+1]
	}
	// A scan reads no location, so the singletons' entries are fixed.
	for r := 0; r < n; r++ {
		o.entries[1<<uint(r)] = o.scanEntry(r)
	}
	o.point = filler{o: o, tabs: tabs}
	o.resetIntern()
	return o, nil
}

// MustNew is New that panics on error.
func MustNew(m *cost.Model) *Optimizer {
	o, err := New(m)
	if err != nil {
		panic(err)
	}
	return o
}

// Model returns the underlying cost model.
func (o *Optimizer) Model() *cost.Model { return o.model }

// Optimize returns the optimal plan and its cost at the given ESS location.
// The returned cost is Cost(Pq, q) in the paper's notation.
func (o *Optimizer) Optimize(at cost.Location) (*plan.Plan, float64) {
	if len(at) != o.q.D() {
		panic(fmt.Sprintf("optimizer: location has %d dims, query has %d epps", len(at), o.q.D()))
	}
	size := 1 << uint(o.n)
	o.point.at = at
	// Connected subsets by increasing population count. Iterating masks in
	// numeric order already guarantees every proper submask precedes its
	// superset.
	for s := 3; s < size; s++ {
		if s&(s-1) != 0 && o.connected[s] {
			o.point.fill(s, 0, 1)
		}
	}
	o.point.at = nil

	full := size - 1
	if !o.connected[full] {
		panic("optimizer: no plan for the full relation set (disconnected query?)")
	}
	return o.planFor(full), o.rootCost(&o.entries[full])
}

// scanEntry is the DP entry of relation r alone: its scan.
func (o *Optimizer) scanEntry(r int) dpEntry {
	nc := o.model.ScanNC(r)
	return dpEntry{nc: nc, sorted: o.model.SortNC(nc), kind: plan.SeqScan, rel: int32(r)}
}

// rootCost is the cost of the plan whose join tree is the full set's entry
// e: the join tree's, aggregated when the query groups.
func (o *Optimizer) rootCost(e *dpEntry) float64 {
	if len(o.q.GroupBy) > 0 {
		return o.model.AggNC(e.nc).Total
	}
	return e.nc.Total
}

// appendJoinIDs appends the join IDs set in mask to buf, in ascending ID
// order: the order the cost model multiplies their selectivities in.
func appendJoinIDs(buf []int, mask uint64) []int {
	for ; mask != 0; mask &= mask - 1 {
		buf = append(buf, bits.TrailingZeros64(mask))
	}
	return buf
}

// planFor returns the plan the DP chose for the full relation set: the
// interned plan when this optimizer has returned the same tree before, a
// new one otherwise.
func (o *Optimizer) planFor(full int) *plan.Plan {
	// A plan interns at most 2n-1 subtrees; reset first if they might not
	// fit, so the ids of one walk are never split across a reset.
	if len(o.internPlans)+2*o.n-1 > o.internCap {
		o.resetIntern()
	}
	return o.rootPlan(o.intern(o.point.tabs, nil, int32(full), 0))
}

// intern returns the intern id of the subtree chosen for entry i of subset
// s's table, assigning ids to it and its descendants, and building each
// one's plan node, on first sight. memo, when non-nil, holds each entry's
// id (-1 until interned), so an entry under many trees is walked once.
func (o *Optimizer) intern(tabs []table, memo [][]int32, s, i int32) int32 {
	if memo != nil && memo[s][i] >= 0 {
		return memo[s][i]
	}
	e := &tabs[s].entries[i]
	k := internKey{kind: e.kind, rel: e.rel, left: -1, right: -1}
	if e.kind != plan.SeqScan {
		k.rel, k.joins = -1, e.joins
		k.left, k.right = o.intern(tabs, memo, e.left, e.li), o.intern(tabs, memo, e.right, e.ri)
	}
	id, ok := o.internIDs[k]
	if !ok {
		id = int32(len(o.internNodes))
		o.internIDs[k] = id
		o.internNodes = append(o.internNodes, o.node(e, k))
		o.internPlans = append(o.internPlans, nil)
	}
	if memo != nil {
		memo[s][i] = id
	}
	return id
}

// resetIntern empties the intern table.
func (o *Optimizer) resetIntern() {
	o.internIDs = make(map[internKey]int32)
	o.internNodes, o.internPlans = nil, nil
}

// node builds the plan node of the DP entry e, whose intern key is k, over
// its children's interned nodes: a merge join sorts both inputs.
func (o *Optimizer) node(e *dpEntry, k internKey) *plan.Node {
	if e.kind == plan.SeqScan {
		return &plan.Node{Kind: plan.SeqScan, Rel: int(e.rel)}
	}
	left, right := o.internNodes[k.left], o.internNodes[k.right]
	if e.kind == plan.MergeJoin {
		left = &plan.Node{Kind: plan.Sort, Rel: -1, Left: left}
		right = &plan.Node{Kind: plan.Sort, Rel: -1, Left: right}
	}
	return &plan.Node{Kind: e.kind, Rel: -1, JoinIDs: appendJoinIDs(nil, e.joins), Left: left, Right: right}
}

// rootPlan returns the plan of the full set's interned join tree id, made
// on the first ask: under an aggregate when the query groups. Calls for
// distinct ids may run concurrently, with no intern running.
func (o *Optimizer) rootPlan(id int32) *plan.Plan {
	if p := o.internPlans[id]; p != nil {
		return p
	}
	root := o.internNodes[id]
	if len(o.q.GroupBy) > 0 {
		root = &plan.Node{Kind: plan.Aggregate, Rel: -1, Left: root}
	}
	p := plan.New(root)
	o.internPlans[id] = p
	return p
}
