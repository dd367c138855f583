package plan

import "slices"

// Pipeline is a maximal set of concurrently executing operators under the
// demand-driven iterator model. Nodes appear in upstream-to-downstream
// order: Nodes[0] is the deepest producer, the last entry is the operator
// whose output leaves the pipeline (to a blocking consumer or the user).
type Pipeline struct {
	// Nodes lists the pipeline's operators upstream-first.
	Nodes []*Node
}

// decompose splits a plan tree into its pipelines in execution order:
// pipelines[i] runs to completion before pipelines[j] for i < j. The rules
// mirror common engine behaviour (and paper Sec 3.1.1):
//
//   - a hash join's build side forms earlier pipelines; the join itself
//     streams in its probe side's pipeline;
//   - a nested-loop join's inner side is materialized first (earlier
//     pipelines); the join streams with its outer side;
//   - Sort is a pipeline breaker terminating its input pipeline;
//   - MergeJoin streams from its (sorted) inputs.
func decompose(root *Node) []Pipeline {
	var result []Pipeline
	var rec func(n *Node, cur *[]*Node)
	rec = func(n *Node, cur *[]*Node) {
		switch n.Kind {
		case SeqScan:
			*cur = append(*cur, n)
		case HashJoin, NestLoop:
			// Blocking child first: build side / materialized inner.
			var blocked []*Node
			rec(n.Right, &blocked)
			result = append(result, Pipeline{Nodes: blocked})
			rec(n.Left, cur)
			*cur = append(*cur, n)
		case MergeJoin:
			rec(n.Left, cur)
			rec(n.Right, cur)
			*cur = append(*cur, n)
		case IndexNestLoop:
			// The inner relation is probed through its index per outer
			// tuple; no separate pipeline materializes. The scan node is
			// recorded in the same pipeline for completeness.
			rec(n.Left, cur)
			rec(n.Right, cur)
			*cur = append(*cur, n)
		case Sort, Aggregate:
			var in []*Node
			rec(n.Left, &in)
			in = append(in, n)
			result = append(result, Pipeline{Nodes: in})
		}
	}
	var rootP []*Node
	rec(root, &rootP)
	result = append(result, Pipeline{Nodes: rootP})
	return result
}

// Pipelines returns the plan's pipelines in execution order.
func (p *Plan) Pipelines() []Pipeline { return p.pipelines }

// EPPNode pairs an error-prone join predicate with the plan node that
// applies it.
type EPPNode struct {
	// JoinID is the predicate's ID in the query's join list.
	JoinID int
	// Node is the join node applying it.
	Node *Node
	// Pipeline is the index of the node's pipeline in execution order.
	Pipeline int
	// Position is the node's upstream-first position within the pipeline.
	Position int
}

// EPPOrder returns the plan's error-prone predicate nodes in the total
// order of paper Sec 3.1.3: first by the execution order of their
// pipelines (inter-pipeline rule), then upstream-before-downstream within
// a pipeline (intra-pipeline rule). Only predicates in epps are considered;
// predicates in learned are excluded. The first element, if any, is the
// plan's spill node.
func (p *Plan) EPPOrder(epps []int, learned map[int]bool) []EPPNode {
	want := make(map[int]bool, len(epps))
	for _, id := range epps {
		if !learned[id] {
			want[id] = true
		}
	}
	var out []EPPNode
	for pi, pl := range p.pipelines {
		for pos, n := range pl.Nodes {
			if n.Kind == SeqScan || n.Kind == Sort || n.Kind == Aggregate || len(n.JoinIDs) == 0 {
				continue
			}
			if id := n.JoinIDs[0]; want[id] {
				out = append(out, EPPNode{JoinID: id, Node: n, Pipeline: pi, Position: pos})
			}
		}
	}
	return out
}

// SpillTarget returns the predicate and node this plan would spill on given
// the unlearned epp set: the first entry of EPPOrder, found by the same
// scan without building the order. ok is false when the plan contains no
// spillable epp node.
func (p *Plan) SpillTarget(epps []int, learned map[int]bool) (EPPNode, bool) {
	for pi, pl := range p.pipelines {
		for pos, n := range pl.Nodes {
			if n.Kind == SeqScan || n.Kind == Sort || n.Kind == Aggregate || len(n.JoinIDs) == 0 {
				continue
			}
			if id := n.JoinIDs[0]; !learned[id] && slices.Contains(epps, id) {
				return EPPNode{JoinID: id, Node: n, Pipeline: pi, Position: pos}, true
			}
		}
	}
	return EPPNode{}, false
}

// Subtree returns the plan consisting only of the subtree rooted at the
// node applying joinID — the modified plan that spill-mode execution runs
// (paper Sec 3.1.2). It returns nil if the predicate is not applied by
// this plan. The result is memoized on the plan: every call for one join
// ID returns the same immutable *Plan, from any goroutine.
func (p *Plan) Subtree(joinID int) *Plan {
	if sub, ok := lookupSubtree(p.subtrees.Load(), joinID); ok {
		return sub
	}
	p.subtreeMu.Lock()
	defer p.subtreeMu.Unlock()
	old := p.subtrees.Load()
	if sub, ok := lookupSubtree(old, joinID); ok {
		return sub
	}
	var sub *Plan
	if n := p.FindJoinNode(joinID); n != nil {
		sub = New(n)
	}
	var next []subtree
	if old != nil {
		next = append(make([]subtree, 0, len(*old)+1), *old...)
	}
	next = append(next, subtree{joinID: joinID, sub: sub})
	p.subtrees.Store(&next)
	return sub
}

// lookupSubtree finds joinID among the memoized subtrees.
func lookupSubtree(memo *[]subtree, joinID int) (*Plan, bool) {
	if memo == nil {
		return nil, false
	}
	for _, e := range *memo {
		if e.joinID == joinID {
			return e.sub, true
		}
	}
	return nil, false
}
