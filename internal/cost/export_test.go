package cost

// Nodes returns the number of distinct subtrees across the plan set.
func (ps *PlanSet) Nodes() int { return len(ps.nodes) }

// Children returns the slots of node k's children, -1 for none.
func (ps *PlanSet) Children(k int32) (left, right int32) {
	return ps.nodes[k].left, ps.nodes[k].right
}

// Root returns the slot of plan i's root, -1 for a nil root.
func (ps *PlanSet) Root(i int) int32 { return ps.roots[i] }
