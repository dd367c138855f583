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
type Optimizer struct {
	model *cost.Model
	q     *query.Query
	n     int

	// Static per-subset precomputation.
	internalJoins [][]int // joins with both sides inside the subset

	// Per-call scratch, reused across Optimize calls.
	entries []dpEntry
}

// dpEntry is the DP table slot for one relation subset.
type dpEntry struct {
	valid bool
	nc    cost.NodeCost
	// sorted is SortNC(nc), the subset sorted as a merge-join input,
	// computed once when the entry is finalised.
	sorted cost.NodeCost
	// Decision record for plan reconstruction.
	kind     plan.OpKind
	leftSet  uint64
	rightSet uint64
	joinIDs  []int
	rel      int // scan relation for singletons
}

// maxRelations bounds the DP table size (2^16 subsets).
const maxRelations = 16

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
	o := &Optimizer{model: m, q: q, n: n}
	size := 1 << uint(n)
	o.internalJoins = make([][]int, size)
	for s := 1; s < size; s++ {
		for _, j := range q.Joins {
			if s&(1<<uint(j.LeftRel)) != 0 && s&(1<<uint(j.RightRel)) != 0 {
				o.internalJoins[s] = append(o.internalJoins[s], j.ID)
			}
		}
	}
	o.entries = make([]dpEntry, size)
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
	for i := range o.entries {
		o.entries[i].valid = false
	}

	// Singletons.
	for r := 0; r < o.n; r++ {
		s := 1 << uint(r)
		nc := o.model.ScanNC(r)
		o.entries[s] = dpEntry{valid: true, nc: nc, sorted: o.model.SortNC(nc), kind: plan.SeqScan, rel: r}
	}

	// Subsets by increasing population count. Iterating masks in numeric
	// order already guarantees every proper submask precedes its superset.
	var crossBuf []int
	for s := 3; s < size; s++ {
		if bits.OnesCount64(uint64(s)) < 2 {
			continue
		}
		best := dpEntry{}
		bestCost := math.Inf(1)
		inS := o.internalJoins[s]
		// Enumerate ordered splits (s1 = probe/outer, s2 = build/inner).
		for s1 := (s - 1) & s; s1 > 0; s1 = (s1 - 1) & s {
			s2 := s &^ s1
			e1, e2 := &o.entries[s1], &o.entries[s2]
			if !e1.valid || !e2.valid {
				continue
			}
			// Join predicates crossing the split: internal to s but not to
			// either side.
			crossBuf = crossBuf[:0]
			for _, id := range inS {
				j := &o.q.Joins[id]
				b1 := uint64(1) << uint(j.LeftRel)
				if (s1&int(b1) != 0) != (s1&(1<<uint(j.RightRel)) != 0) {
					crossBuf = append(crossBuf, id)
				}
			}
			if len(crossBuf) == 0 {
				continue // no cross product plans
			}
			consider := func(kind plan.OpKind, l, r cost.NodeCost, innerRel int) {
				nc := o.model.JoinNC(kind, crossBuf, l, r, innerRel, at)
				if nc.Total < bestCost {
					bestCost = nc.Total
					best = dpEntry{
						valid: true, nc: nc, kind: kind,
						leftSet: uint64(s1), rightSet: uint64(s2),
						joinIDs: append([]int(nil), crossBuf...),
					}
				}
			}
			consider(plan.HashJoin, e1.nc, e2.nc, -1)
			consider(plan.MergeJoin, e1.sorted, e2.sorted, -1)
			consider(plan.NestLoop, e1.nc, e2.nc, -1)
			if bits.OnesCount64(uint64(s2)) == 1 {
				rel := bits.TrailingZeros64(uint64(s2))
				consider(plan.IndexNestLoop, e1.nc, cost.NodeCost{}, rel)
			}
		}
		if best.valid {
			best.sorted = o.model.SortNC(best.nc)
			o.entries[s] = best
		}
	}

	full := size - 1
	if !o.entries[full].valid {
		panic("optimizer: no plan for the full relation set (disconnected query?)")
	}
	root := o.reconstruct(uint64(full))
	total := o.entries[full].nc.Total
	if len(o.q.GroupBy) > 0 {
		nc := o.model.AggNC(o.entries[full].nc)
		root = &plan.Node{Kind: plan.Aggregate, Rel: -1, Left: root}
		total = nc.Total
	}
	return plan.New(root), total
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
	return &plan.Node{Kind: e.kind, Rel: -1, JoinIDs: e.joinIDs, Left: left, Right: right}
}
