package cost

import (
	"repro/internal/plan"
)

// NodeCost is the evaluation result for one plan node at one location.
type NodeCost struct {
	// Rows is the node's output cardinality.
	Rows float64
	// Self is the node's own cost excluding children.
	Self float64
	// Total is the cumulative cost of the subtree rooted at the node.
	Total float64
}

// Eval returns the total cost of executing the plan at the given ESS
// location: the paper's Cost(P, q).
func (m *Model) Eval(p *plan.Plan, at Location) float64 {
	nc := m.evalNode(p.Root, at)
	return nc.Total
}

// EvalTree evaluates the plan and returns the per-node breakdown, keyed by
// node pointer; useful for traces and tests.
func (m *Model) EvalTree(p *plan.Plan, at Location) map[*plan.Node]NodeCost {
	out := make(map[*plan.Node]NodeCost)
	var rec func(n *plan.Node) NodeCost
	rec = func(n *plan.Node) NodeCost {
		if n == nil {
			return NodeCost{}
		}
		nc := m.evalNodeWith(n, at, rec)
		out[n] = nc
		return nc
	}
	rec(p.Root)
	return out
}

// RootCost costs one plan at locations that differ only in dimensions
// read by its root's own predicates: its root's children are costed once,
// and each Eval recomputes only the root operator, on the inputs Model.Eval
// passes it. It is how a spilled subtree, rooted at the one node applying
// the spilled epp, is re-costed along that epp's dimension.
type RootCost struct {
	m    *Model
	root *plan.Node
	kids [2]NodeCost // the left and right child's NodeCost
}

// RootEval costs p's root's children at at, for RootCost.Eval.
func (m *Model) RootEval(p *plan.Plan, at Location) RootCost {
	rc := RootCost{m: m, root: p.Root}
	m.evalNodeWith(rc.root, at, func(c *plan.Node) NodeCost {
		nc := m.evalNode(c, at)
		rc.kids[rc.slot(c)] = nc
		return nc
	})
	return rc
}

// Eval returns Model.Eval(p, at), bit for bit, when at differs from the
// location given to RootEval only in dimensions that p's root's children
// do not read.
func (rc *RootCost) Eval(at Location) float64 {
	return rc.m.evalNodeWith(rc.root, at, rc.child).Total
}

func (rc *RootCost) child(c *plan.Node) NodeCost { return rc.kids[rc.slot(c)] }

func (rc *RootCost) slot(c *plan.Node) int {
	if c == rc.root.Left {
		return 0
	}
	return 1
}

// evalNode computes the NodeCost of the subtree rooted at n.
func (m *Model) evalNode(n *plan.Node, at Location) NodeCost {
	if n == nil {
		return NodeCost{}
	}
	var rec func(*plan.Node) NodeCost
	rec = func(c *plan.Node) NodeCost { return m.evalNodeWith(c, at, rec) }
	return m.evalNodeWith(n, at, rec)
}

// evalNodeWith computes one node's cost given a recursion function for its
// children (allowing EvalTree to intercept every node). It delegates to the
// incremental per-operator API in incremental.go.
func (m *Model) evalNodeWith(n *plan.Node, at Location, rec func(*plan.Node) NodeCost) NodeCost {
	switch n.Kind {
	case plan.SeqScan:
		return m.ScanNC(n.Rel)
	case plan.Sort:
		return m.SortNC(rec(n.Left))
	case plan.Aggregate:
		return m.AggNC(rec(n.Left))
	case plan.IndexNestLoop:
		// The inner base relation is reached through its index; its scan
		// cost is never paid, so the right child is not recursed into.
		return m.JoinNC(n.Kind, n.JoinIDs, rec(n.Left), NodeCost{}, n.Right.Rel, at)
	case plan.HashJoin, plan.MergeJoin, plan.NestLoop:
		return m.JoinNC(n.Kind, n.JoinIDs, rec(n.Left), rec(n.Right), -1, at)
	}
	return NodeCost{}
}

// spillIO models the two-pass disk cost of a hash or sort input exceeding
// working memory.
func (m *Model) spillIO(rows float64) float64 {
	p := &m.Params
	if rows <= p.WorkMemRows {
		return 0
	}
	return 2 * (rows / p.RowsPerPage) * p.SeqPageCost
}
