package cost

// Nodes returns the number of distinct subtrees across the plan set.
func (ps *PlanSet) Nodes() int { return len(ps.nodes) }
