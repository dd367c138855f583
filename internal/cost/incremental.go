package cost

import (
	"math"

	"repro/internal/plan"
)

// The incremental API computes NodeCosts from child NodeCosts without
// walking subtrees; it is the single source of truth for operator costing —
// the tree evaluator in eval.go is built on it — and lets the dynamic
// programming optimizer cost candidate joins in O(1) per candidate.

// ScanNC returns the NodeCost of scanning relation rel, precomputed by
// NewModel: a scan's cost does not depend on the location.
func (m *Model) ScanNC(rel int) NodeCost { return m.scanNC[rel] }

// SortNC returns the NodeCost of sorting the given input.
func (m *Model) SortNC(in NodeCost) NodeCost {
	p := &m.Params
	nrows := math.Max(in.Rows, 2)
	self := in.Rows*math.Log2(nrows)*p.SortCmpCost + m.spillIO(in.Rows)
	return NodeCost{Rows: in.Rows, Self: self, Total: in.Total + self}
}

// AggNC returns the NodeCost of hash-aggregating the input by the query's
// GROUP BY columns: output cardinality is the group-count estimate capped
// by the input cardinality; cost is one hash probe per input row plus
// emission of the groups.
func (m *Model) AggNC(in NodeCost) NodeCost {
	p := &m.Params
	out := m.groupEstimate
	if out > in.Rows {
		out = in.Rows
	}
	out = atLeastOneRow(out)
	self := in.Rows*(p.CPUOperCost+p.HashQualCost) + out*p.CPUTupleCost
	if in.Rows > p.WorkMemRows {
		self += m.spillIO(in.Rows)
	}
	return NodeCost{Rows: out, Self: self, Total: in.Total + self}
}

// JoinRowsFor returns the output cardinality of joining inputs with the
// given cardinalities under the listed predicates at the location.
func (m *Model) JoinRowsFor(joinIDs []int, lrows, rrows float64, at Location) float64 {
	out := lrows * rrows
	for _, id := range joinIDs {
		out *= m.Selectivity(id, at)
	}
	return atLeastOneRow(out)
}

// atLeastOneRow floors an estimated cardinality at one row.
func atLeastOneRow(rows float64) float64 {
	if rows < 1 {
		return 1
	}
	return rows
}

// JoinNC returns the NodeCost of a join of the given physical kind applying
// joinIDs over children l and r. For IndexNestLoop, innerRel names the
// probed base relation: its scan cost is not paid (r should be its ScanNC;
// only its cardinality is used). For other kinds innerRel is ignored.
func (m *Model) JoinNC(kind plan.OpKind, joinIDs []int, l, r NodeCost, innerRel int, at Location) NodeCost {
	rrows := r.Rows
	if kind == plan.IndexNestLoop {
		rrows = m.baseRows[innerRel]
	}
	return m.JoinNCOut(kind, m.JoinRowsFor(joinIDs, l.Rows, rrows, at), l, r)
}

// JoinNCOut is JoinNC given the join's output cardinality out, as
// JoinRowsFor returns it: a caller costing several physical alternatives of
// one join computes out once. For IndexNestLoop, r is ignored. It
// dispatches to the per-kind functions below, which PlanSet's lane kernel
// calls directly.
func (m *Model) JoinNCOut(kind plan.OpKind, out float64, l, r NodeCost) NodeCost {
	switch kind {
	case plan.HashJoin:
		return m.hashJoinNC(out, l, r)
	case plan.MergeJoin:
		return m.mergeJoinNC(out, l, r)
	case plan.NestLoop:
		return m.nestLoopNC(out, l, r)
	case plan.IndexNestLoop:
		return m.indexJoinNC(out, l)
	}
	return NodeCost{}
}

// hashJoinNC costs a hash join building on r and probing with l.
func (m *Model) hashJoinNC(out float64, l, r NodeCost) NodeCost {
	p := &m.Params
	self := r.Rows*(p.CPUOperCost+p.HashQualCost) +
		l.Rows*p.HashQualCost +
		out*p.CPUTupleCost
	if r.Rows > p.WorkMemRows {
		self += m.spillIO(r.Rows) + m.spillIO(l.Rows)
	}
	return NodeCost{Rows: out, Self: self, Total: l.Total + r.Total + self}
}

// mergeJoinNC costs a merge join of two sorted inputs.
func (m *Model) mergeJoinNC(out float64, l, r NodeCost) NodeCost {
	p := &m.Params
	self := (l.Rows+r.Rows)*p.CPUOperCost + out*p.CPUTupleCost
	return NodeCost{Rows: out, Self: self, Total: l.Total + r.Total + self}
}

// nestLoopNC costs a nested-loop join over a materialized inner r.
func (m *Model) nestLoopNC(out float64, l, r NodeCost) NodeCost {
	p := &m.Params
	self := r.Rows*p.MaterializeCost +
		l.Rows*r.Rows*p.NLPairCost +
		out*p.CPUTupleCost
	return NodeCost{Rows: out, Self: self, Total: l.Total + r.Total + self}
}

// indexJoinNC costs an index nested-loop join: one index descent per outer
// row of l, one random fetch per output row; the inner is never scanned.
func (m *Model) indexJoinNC(out float64, l NodeCost) NodeCost {
	p := &m.Params
	self := l.Rows*p.IndexProbeCost +
		out*(p.RandPageCost+p.CPUTupleCost)
	return NodeCost{Rows: out, Self: self, Total: l.Total + self}
}
