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
	"math"
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

	// Per-call scratch, reused across Optimize calls.
	entries []dpEntry
	joinBuf []int // the crossing joins of one split, ascending ID

	// The intern table: an id per distinct chosen subtree, and the plan
	// returned for each id that was a root. Reset wholesale rather than
	// grow past internCap ids (internLimit; tests shrink it).
	internIDs   map[internKey]int32
	internPlans []*plan.Plan
	internCap   int
}

// dpEntry is the DP table slot for one relation subset.
type dpEntry struct {
	nc cost.NodeCost
	// sorted is SortNC(nc), the subset sorted as a merge-join input,
	// computed once when the entry is finalised.
	sorted cost.NodeCost
	// Decision record for plan reconstruction.
	kind     plan.OpKind
	leftSet  uint64
	rightSet uint64
	joins    uint64 // joins applied at the node, as a bitmask of join IDs
	rel      int    // scan relation for singletons
}

// internKey identifies a chosen subtree exactly: a scan by its relation, a
// join by its operator, its join mask and its children's intern ids. The
// children's ids identify their subtrees by induction, so equal keys mean
// equal trees and no tiebreak is needed.
type internKey struct {
	kind        plan.OpKind
	rel         int
	joins       uint64
	left, right int32
}

// internLimit bounds an optimizer's intern table. The benchmark builds'
// worker optimizers hold at most a few thousand ids; a Session's
// long-lived shared optimizer resets past the limit, as Shared's memo does,
// which costs only rebuilding plan trees.
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
	o.entries = make([]dpEntry, size)
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

	// Singletons.
	for r := 0; r < o.n; r++ {
		s := 1 << uint(r)
		nc := o.model.ScanNC(r)
		o.entries[s] = dpEntry{nc: nc, sorted: o.model.SortNC(nc), kind: plan.SeqScan, rel: r}
	}

	// Connected subsets by increasing population count. Iterating masks in
	// numeric order already guarantees every proper submask precedes its
	// superset.
	for s := 3; s < size; s++ {
		if s&(s-1) == 0 || !o.connected[s] {
			continue
		}
		var best dpEntry
		bestCost := math.Inf(1)
		inS := o.internalMask[s]
		// Enumerate ordered splits (s1 = probe/outer, s2 = build/inner).
		for s1 := (s - 1) & s; s1 > 0; s1 = (s1 - 1) & s {
			s2 := s &^ s1
			if !o.connected[s1] || !o.connected[s2] {
				continue
			}
			// Join predicates crossing the split: internal to s but not to
			// either side.
			cross := inS &^ (o.internalMask[s1] | o.internalMask[s2])
			if cross == 0 {
				continue // no cross product plans
			}
			e1, e2 := &o.entries[s1], &o.entries[s2]
			// Every alternative produces the same rows: sorting keeps a
			// row count, and an index nested loop's inner side, a single
			// relation, has its base rows.
			o.joinBuf = appendJoinIDs(o.joinBuf[:0], cross)
			out := o.model.JoinRowsFor(o.joinBuf, e1.nc.Rows, e2.nc.Rows, at)
			consider := func(kind plan.OpKind, l, r cost.NodeCost) {
				nc := o.model.JoinNCOut(kind, out, l, r)
				if nc.Total < bestCost {
					bestCost = nc.Total
					best = dpEntry{
						nc: nc, kind: kind,
						leftSet: uint64(s1), rightSet: uint64(s2), joins: cross,
					}
				}
			}
			consider(plan.HashJoin, e1.nc, e2.nc)
			consider(plan.MergeJoin, e1.sorted, e2.sorted)
			consider(plan.NestLoop, e1.nc, e2.nc)
			if s2&(s2-1) == 0 {
				consider(plan.IndexNestLoop, e1.nc, e2.nc)
			}
		}
		best.sorted = o.model.SortNC(best.nc)
		o.entries[s] = best
	}

	full := size - 1
	if !o.connected[full] {
		panic("optimizer: no plan for the full relation set (disconnected query?)")
	}
	total := o.entries[full].nc.Total
	if len(o.q.GroupBy) > 0 {
		total = o.model.AggNC(o.entries[full].nc).Total
	}
	return o.planFor(uint64(full)), total
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
// freshly reconstructed one otherwise.
func (o *Optimizer) planFor(full uint64) *plan.Plan {
	// A plan interns at most 2n-1 subtrees; reset first if they might not
	// fit, so the ids of one walk are never split across a reset.
	if len(o.internPlans)+2*o.n-1 > o.internCap {
		o.resetIntern()
	}
	id := o.intern(full)
	if p := o.internPlans[id]; p != nil {
		return p
	}
	root := o.reconstruct(full)
	if len(o.q.GroupBy) > 0 {
		root = &plan.Node{Kind: plan.Aggregate, Rel: -1, Left: root}
	}
	p := plan.New(root)
	o.internPlans[id] = p
	return p
}

// intern returns the intern id of the subtree the DP chose for set,
// assigning ids to it and its descendants on first sight.
func (o *Optimizer) intern(set uint64) int32 {
	e := &o.entries[set]
	k := internKey{kind: e.kind, rel: e.rel, left: -1, right: -1}
	if e.kind != plan.SeqScan {
		k.rel, k.joins = -1, e.joins
		k.left, k.right = o.intern(e.leftSet), o.intern(e.rightSet)
	}
	id, ok := o.internIDs[k]
	if !ok {
		id = int32(len(o.internPlans))
		o.internIDs[k] = id
		o.internPlans = append(o.internPlans, nil)
	}
	return id
}

// resetIntern empties the intern table.
func (o *Optimizer) resetIntern() {
	o.internIDs = make(map[internKey]int32)
	o.internPlans = nil
}

// reconstruct rebuilds the plan tree for a DP subset.
func (o *Optimizer) reconstruct(set uint64) *plan.Node {
	e := &o.entries[set]
	if e.kind == plan.SeqScan {
		return &plan.Node{Kind: plan.SeqScan, Rel: e.rel}
	}
	left := o.reconstruct(e.leftSet)
	right := o.reconstruct(e.rightSet)
	if e.kind == plan.MergeJoin {
		left = &plan.Node{Kind: plan.Sort, Rel: -1, Left: left}
		right = &plan.Node{Kind: plan.Sort, Rel: -1, Left: right}
	}
	return &plan.Node{Kind: e.kind, Rel: -1, JoinIDs: appendJoinIDs(nil, e.joins), Left: left, Right: right}
}
