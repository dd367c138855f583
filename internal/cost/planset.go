package cost

import (
	"encoding/binary"

	"repro/internal/plan"
)

// PlanSet costs a fixed set of plans — typically a POSP — at one location
// at a time. The plans' subtrees are hash-consed into one node table, so a
// subtree shared by many plans (a common join prefix, a base scan) is a
// single node, and a generation-stamped memo evaluates every node at most
// once per location. Each node is costed through the same ScanNC, SortNC,
// AggNC and JoinNC calls on the same inputs as Model.Eval, so Cost is
// bit-identical to Model.Eval. The memo is allocated on the first At, so a
// set that is only cloned holds none.
//
// A PlanSet is not safe for concurrent use; Clone gives each goroutine its
// own.
type PlanSet struct {
	m     *Model
	nodes []setNode
	roots []int32 // node slot of each plan's root, -1 for a nil root

	at    Location
	gen   uint64
	stamp []uint64   // generation that memo[k] was computed in
	memo  []NodeCost // node costs at the current location
}

// setNode is one distinct subtree. Children are slots in the node table,
// always lower than the node's own slot; -1 means no child.
type setNode struct {
	kind        plan.OpKind
	rel         int // scanned relation, or the probed relation of an IndexNestLoop
	joinIDs     []int
	left, right int32
}

// setKey identifies a subtree by its operator and its children's slots.
type setKey struct {
	kind        plan.OpKind
	rel         int
	joins       string // varint-encoded join IDs
	left, right int32
}

// NewPlanSet hash-conses the plans into one node table for the model.
func NewPlanSet(m *Model, plans []*plan.Plan) *PlanSet {
	ps := &PlanSet{m: m, roots: make([]int32, len(plans))}
	index := map[setKey]int32{}
	var buf []byte
	var intern func(n *plan.Node) int32
	intern = func(n *plan.Node) int32 {
		if n == nil {
			return -1
		}
		sn := setNode{kind: n.Kind, rel: -1, joinIDs: n.JoinIDs, left: -1, right: -1}
		switch n.Kind {
		case plan.SeqScan:
			sn.rel = n.Rel
		case plan.Sort, plan.Aggregate:
			sn.left = intern(n.Left)
		case plan.IndexNestLoop:
			// Model.Eval reads only the probed relation of the right child.
			sn.rel = n.Right.Rel
			sn.left = intern(n.Left)
		case plan.HashJoin, plan.MergeJoin, plan.NestLoop:
			sn.left, sn.right = intern(n.Left), intern(n.Right)
		}
		buf = buf[:0]
		for _, id := range n.JoinIDs {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		key := setKey{kind: sn.kind, rel: sn.rel, joins: string(buf), left: sn.left, right: sn.right}
		if k, ok := index[key]; ok {
			return k
		}
		k := int32(len(ps.nodes))
		ps.nodes = append(ps.nodes, sn)
		index[key] = k
		return k
	}
	for i, p := range plans {
		ps.roots[i] = intern(p.Root)
	}
	return ps
}

// Clone returns a PlanSet over the same plans with its own memo, sharing
// the node table: one clone per goroutine costs the set concurrently.
func (ps *PlanSet) Clone() *PlanSet {
	return &PlanSet{m: ps.m, nodes: ps.nodes, roots: ps.roots}
}

// At moves the set to a new location, invalidating every memoized cost.
// The set reads at until the next At call; the caller must not modify it
// in between.
func (ps *PlanSet) At(at Location) {
	if ps.memo == nil {
		ps.stamp = make([]uint64, len(ps.nodes))
		ps.memo = make([]NodeCost, len(ps.nodes))
	}
	ps.at = at
	ps.gen++
}

// Cost returns the total cost of plan i at the location of the last At
// call: Model.Eval(plans[i], at).
func (ps *PlanSet) Cost(i int) float64 { return ps.eval(ps.roots[i]).Total }

// eval returns the NodeCost of slot k at the current location, computing
// it (and any uncomputed descendants) on first use.
func (ps *PlanSet) eval(k int32) NodeCost {
	if k < 0 {
		return NodeCost{}
	}
	if ps.stamp[k] == ps.gen {
		return ps.memo[k]
	}
	m, n := ps.m, &ps.nodes[k]
	var nc NodeCost
	switch n.kind {
	case plan.SeqScan:
		nc = m.ScanNC(n.rel)
	case plan.Sort:
		nc = m.SortNC(ps.eval(n.left))
	case plan.Aggregate:
		nc = m.AggNC(ps.eval(n.left))
	case plan.IndexNestLoop:
		nc = m.JoinNC(n.kind, n.joinIDs, ps.eval(n.left), NodeCost{}, n.rel, ps.at)
	case plan.HashJoin, plan.MergeJoin, plan.NestLoop:
		nc = m.JoinNC(n.kind, n.joinIDs, ps.eval(n.left), ps.eval(n.right), -1, ps.at)
	}
	ps.stamp[k], ps.memo[k] = ps.gen, nc
	return nc
}
