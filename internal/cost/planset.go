package cost

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"repro/internal/plan"
)

// Lanes is the most locations PlanSet.Eval costs a schedule at in one
// pass.
const Lanes = 16

// PlanSet costs a fixed set of plans — typically a POSP — at up to Lanes
// locations at a time. The plans' subtrees are hash-consed into one node
// table, so a subtree shared by many plans (a common join prefix, a base
// scan) is a single node, a slot of the table. A schedule is a list of
// slots in which children come before their parents: Eval computes its
// nodes bottom-up, each once per location, into a memo, and a plan's cost
// there is then one read of its root's slot. Schedule builds them; they
// depend on the plans only, so a caller builds one once and evaluates it
// at many locations. Each location is a lane: Eval decodes a node once and
// costs it in every lane, through the same ScanNC, SortNC, AggNC and
// per-kind join functions, on the same inputs, as Model.Eval, so Cost is
// bit-identical to Model.Eval. The memo is allocated on the first Eval, so
// a set that is only cloned holds none.
//
// A PlanSet is not safe for concurrent use; Clone gives each goroutine its
// own.
type PlanSet struct {
	m     *Model
	nodes []setNode
	joins []int32   // every node's join IDs, a node's at [joins, joins+nJoins)
	preds []joinSel // by join ID: the predicate resolved for the lanes
	roots []int32   // node slot of each plan's root, -1 for a nil root

	memo [][Lanes]laneCost // memo[k][j]: node k's cost in lane j of the last Eval costing it
	at   [][Lanes]float64  // at[d][j]: lane j's selectivity in dimension d
}

// laneCost is a node's cost in one lane: a parent reads only its
// children's Rows and Total.
type laneCost struct{ rows, total float64 }

// joinSel is a join predicate as the plan set reads it: its dimension in
// the ESS, or -1 and its statistics-derived selectivity (Model.Selectivity).
type joinSel struct {
	dim int32
	sel float64
}

// setNode is one distinct subtree, in 16 bytes. Children are slots in the
// node table, always lower than the node's own slot; -1 means no child.
type setNode struct {
	left, right int32
	joins       int32 // offset of the node's join IDs in PlanSet.joins
	nJoins      uint8
	kind        uint8 // a plan.OpKind
	rel         int16 // scanned relation, or the probed relation of an IndexNestLoop
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
	ps := &PlanSet{m: m, roots: make([]int32, len(plans)), preds: make([]joinSel, len(m.joinSel))}
	for id := range ps.preds {
		ps.preds[id] = joinSel{dim: int32(m.eppDim[id]), sel: m.joinSel[id]}
	}
	index := map[setKey]int32{}
	var buf []byte
	var intern func(n *plan.Node) int32
	intern = func(n *plan.Node) int32 {
		if n == nil {
			return -1
		}
		left, right, rel := int32(-1), int32(-1), -1
		switch n.Kind {
		case plan.SeqScan:
			rel = n.Rel
		case plan.Sort, plan.Aggregate:
			left = intern(n.Left)
		case plan.IndexNestLoop:
			// Model.Eval reads only the probed relation of the right child.
			rel = n.Right.Rel
			left = intern(n.Left)
		case plan.HashJoin, plan.MergeJoin, plan.NestLoop:
			left, right = intern(n.Left), intern(n.Right)
		}
		buf = buf[:0]
		for _, id := range n.JoinIDs {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		key := setKey{kind: n.Kind, rel: rel, joins: string(buf), left: left, right: right}
		if k, ok := index[key]; ok {
			return k
		}
		if rel > math.MaxInt16 || len(n.JoinIDs) > math.MaxUint8 {
			panic("cost: plan node too large for a PlanSet")
		}
		k := int32(len(ps.nodes))
		ps.nodes = append(ps.nodes, setNode{
			left: left, right: right,
			joins: int32(len(ps.joins)), nJoins: uint8(len(n.JoinIDs)),
			kind: uint8(n.Kind), rel: int16(rel),
		})
		for _, id := range n.JoinIDs {
			ps.joins = append(ps.joins, int32(id))
		}
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
	return &PlanSet{m: ps.m, nodes: ps.nodes, joins: ps.joins, preds: ps.preds, roots: ps.roots}
}

// Schedule returns the schedule of the plans order, and of each suffix of
// it. Give each node the highest position in order of a plan holding it: a
// child sits in every plan its parent does, so its position is at least
// its parent's. slots holds every node of the plans, by position,
// descending, then by slot, ascending, so each child comes before its
// parent; and the nodes of order[i+1:] are those whose position exceeds i,
// so slots[:cut[i]] is their schedule.
func (ps *PlanSet) Schedule(order []int) (slots []int32, cut []int) {
	pos := make([]int32, len(ps.nodes))
	for k := range pos {
		pos[k] = -1
	}
	for i, id := range order {
		if k := ps.roots[id]; k >= 0 {
			pos[k] = max(pos[k], int32(i))
		}
	}
	// Parents sit above their children, so a descending sweep finishes
	// every parent before handing its position down.
	for k := len(pos) - 1; k >= 0; k-- {
		for _, c := range [2]int32{ps.nodes[k].left, ps.nodes[k].right} {
			if c >= 0 {
				pos[c] = max(pos[c], pos[k])
			}
		}
	}
	for k, p := range pos {
		if p >= 0 {
			slots = append(slots, int32(k))
		}
	}
	slices.SortStableFunc(slots, func(a, b int32) int { return cmp.Compare(pos[b], pos[a]) })
	cut = make([]int, len(order))
	for i := range cut {
		cut[i] = sort.Search(len(slots), func(j int) bool { return pos[slots[j]] <= int32(i) })
	}
	return slots, cut
}

// Eval costs, in lane j, the schedule prefix slots[:cut[j]] at location
// at[j], for up to Lanes locations; cut must not increase, so lane j
// stops at its own prefix while the lanes before it go on. Each node's
// children must come before it in slots, or have been costed in the same
// lane at the same location by an earlier call. After it, Cost(j, i) reads
// plan i in lane j when slots[:cut[j]] holds its root. The set reads at
// only during the call.
func (ps *PlanSet) Eval(at []Location, slots []int32, cut []int) {
	n := len(at)
	if n > Lanes || len(cut) != n {
		panic("cost: PlanSet.Eval needs one cut per location, at most Lanes of them")
	}
	for j := 1; j < n; j++ {
		if cut[j] > cut[j-1] {
			panic("cost: PlanSet.Eval cuts must not increase")
		}
	}
	if ps.memo == nil {
		ps.memo = make([][Lanes]laneCost, len(ps.nodes))
		ps.at = make([][Lanes]float64, ps.m.Query.D())
	}
	for j, loc := range at {
		for d, v := range loc {
			ps.at[d][j] = v
		}
	}
	m, nodes, memo := ps.m, ps.nodes, ps.memo
	for i, k := range slots {
		for n > 0 && cut[n-1] <= i {
			n--
		}
		if n == 0 {
			return
		}
		nd := &nodes[k]
		dst := memo[k][:n]
		kind := plan.OpKind(nd.kind)
		switch kind {
		case plan.SeqScan:
			nc := m.ScanNC(int(nd.rel))
			for j := range dst {
				dst[j] = laneCost{nc.Rows, nc.Total}
			}
			continue
		case plan.Sort:
			in := &memo[nd.left]
			for j := range dst {
				nc := m.SortNC(in[j].nodeCost())
				dst[j] = laneCost{nc.Rows, nc.Total}
			}
			continue
		case plan.Aggregate:
			in := &memo[nd.left]
			for j := range dst {
				nc := m.AggNC(in[j].nodeCost())
				dst[j] = laneCost{nc.Rows, nc.Total}
			}
			continue
		}
		// A join, costed on its output cardinality in each lane.
		joins := ps.joins[nd.joins : nd.joins+int32(nd.nJoins)]
		l := &memo[nd.left]
		if kind == plan.IndexNestLoop {
			rrows := m.baseRows[nd.rel]
			for j := range dst {
				nc := m.indexJoinNC(ps.joinRows(joins, j, l[j].rows, rrows), l[j].nodeCost())
				dst[j] = laneCost{nc.Rows, nc.Total}
			}
			continue
		}
		r := &memo[nd.right]
		switch kind {
		case plan.HashJoin:
			for j := range dst {
				nc := m.hashJoinNC(ps.joinRows(joins, j, l[j].rows, r[j].rows), l[j].nodeCost(), r[j].nodeCost())
				dst[j] = laneCost{nc.Rows, nc.Total}
			}
		case plan.MergeJoin:
			for j := range dst {
				nc := m.mergeJoinNC(ps.joinRows(joins, j, l[j].rows, r[j].rows), l[j].nodeCost(), r[j].nodeCost())
				dst[j] = laneCost{nc.Rows, nc.Total}
			}
		case plan.NestLoop:
			for j := range dst {
				nc := m.nestLoopNC(ps.joinRows(joins, j, l[j].rows, r[j].rows), l[j].nodeCost(), r[j].nodeCost())
				dst[j] = laneCost{nc.Rows, nc.Total}
			}
		}
	}
}

// joinRows is JoinRowsFor in lane j, for the join IDs joins: the product
// is taken in the same order.
func (ps *PlanSet) joinRows(joins []int32, j int, lrows, rrows float64) float64 {
	out := lrows * rrows
	for _, id := range joins {
		if js := &ps.preds[id]; js.dim >= 0 {
			out *= ps.at[js.dim][j]
		} else {
			out *= js.sel
		}
	}
	return atLeastOneRow(out)
}

// nodeCost is the lane's cost as the operator functions take it.
func (c laneCost) nodeCost() NodeCost { return NodeCost{Rows: c.rows, Total: c.total} }

// Cost returns the total cost of plan i in lane j, at the location of the
// Eval that last costed its root there: Model.Eval(plans[i], at[j]).
func (ps *PlanSet) Cost(j, i int) float64 {
	if k := ps.roots[i]; k >= 0 {
		return ps.memo[k][j].total
	}
	return 0
}
