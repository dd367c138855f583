package cost

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"repro/internal/plan"
)

// PlanSet costs a fixed set of plans — typically a POSP — at one location
// at a time. The plans' subtrees are hash-consed into one node table, so a
// subtree shared by many plans (a common join prefix, a base scan) is a
// single node, a slot of the table. A schedule is a list of slots in which
// children come before their parents: Eval computes its nodes bottom-up,
// each once, into a memo, and a plan's cost is then one read of its root's
// slot. Schedule builds them; they depend on the plans only, so a caller
// builds one once and evaluates it at many locations. Each node is costed
// through the same ScanNC, SortNC, AggNC and JoinNC calls on the same
// inputs as Model.Eval, so Cost is bit-identical to Model.Eval. The memo
// is allocated on the first Eval, so a set that is only cloned holds none.
//
// A PlanSet is not safe for concurrent use; Clone gives each goroutine its
// own.
type PlanSet struct {
	m     *Model
	nodes []setNode
	joins []int   // every node's join IDs, a node's at [joins, joins+nJoins)
	roots []int32 // node slot of each plan's root, -1 for a nil root

	memo []NodeCost // node costs at the location of the last Eval
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
	ps := &PlanSet{m: m, roots: make([]int32, len(plans))}
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
		ps.joins = append(ps.joins, n.JoinIDs...)
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
	return &PlanSet{m: ps.m, nodes: ps.nodes, joins: ps.joins, roots: ps.roots}
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

// Eval costs the nodes of the schedule slots at location at, in order:
// each node's children must come before it in slots, or have been costed
// at the same location by an earlier call. After it, Cost reads the plans
// whose roots slots holds. The set reads at only during the call.
func (ps *PlanSet) Eval(at Location, slots []int32) {
	if ps.memo == nil {
		ps.memo = make([]NodeCost, len(ps.nodes))
	}
	m, nodes, memo := ps.m, ps.nodes, ps.memo
	for _, k := range slots {
		n := &nodes[k]
		var nc NodeCost
		switch kind := plan.OpKind(n.kind); kind {
		case plan.SeqScan:
			nc = m.ScanNC(int(n.rel))
		case plan.Sort:
			nc = m.SortNC(memo[n.left])
		case plan.Aggregate:
			nc = m.AggNC(memo[n.left])
		case plan.IndexNestLoop:
			nc = m.JoinNC(kind, ps.joins[n.joins:n.joins+int32(n.nJoins)], memo[n.left], NodeCost{}, int(n.rel), at)
		case plan.HashJoin, plan.MergeJoin, plan.NestLoop:
			nc = m.JoinNC(kind, ps.joins[n.joins:n.joins+int32(n.nJoins)], memo[n.left], memo[n.right], -1, at)
		}
		memo[k] = nc
	}
}

// Cost returns the total cost of plan i at the location of the Eval that
// last costed its root: Model.Eval(plans[i], at).
func (ps *PlanSet) Cost(i int) float64 {
	if k := ps.roots[i]; k >= 0 {
		return ps.memo[k].Total
	}
	return 0
}
