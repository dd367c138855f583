// Package plan defines physical execution plan trees and the structural
// analyses the robust-processing algorithms need: pipeline decomposition
// under the demand-driven iterator model (paper Sec 3.1.1), the total order
// over error-prone predicate nodes that drives spill-node identification
// (Sec 3.1.3), and canonical plan fingerprints used for POSP identity.
package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// OpKind enumerates the physical operators.
type OpKind int

// Physical operator kinds.
const (
	// SeqScan reads a base relation, applying its filter predicates.
	SeqScan OpKind = iota
	// HashJoin builds a hash table on the right (build) child and probes
	// it with tuples from the left (probe) child.
	HashJoin
	// MergeJoin merges its two sorted children; children are Sort nodes
	// unless already sorted.
	MergeJoin
	// NestLoop is a block nested-loops join: the right (inner) child is
	// materialized once, then scanned per outer tuple.
	NestLoop
	// IndexNestLoop probes an index on the right child's base relation for
	// each outer tuple; the right child must be a SeqScan node standing for
	// the indexed relation. Cheap at low join selectivity, catastrophic at
	// high — the classic robustness trap.
	IndexNestLoop
	// Sort sorts its input; a pipeline breaker.
	Sort
	// Aggregate hash-aggregates its input by the query's GROUP BY columns;
	// a pipeline breaker (consumes all input before emitting groups).
	Aggregate
)

// String returns a short operator mnemonic.
func (k OpKind) String() string {
	switch k {
	case SeqScan:
		return "Scan"
	case HashJoin:
		return "HJ"
	case MergeJoin:
		return "MJ"
	case NestLoop:
		return "NL"
	case IndexNestLoop:
		return "INL"
	case Sort:
		return "Sort"
	case Aggregate:
		return "Agg"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Node is one operator in a plan tree. Nodes are immutable after
// construction; per-location cost annotations live outside the tree
// (see package cost) so that POSP plans can be shared across the ESS.
type Node struct {
	// Kind is the physical operator.
	Kind OpKind
	// Rel is the relation index for SeqScan nodes, -1 otherwise.
	Rel int
	// JoinIDs lists the join predicates applied at this node (for join
	// kinds): the first entry is the primary equi-join condition; further
	// entries are predicates that become applicable because both their
	// sides are present.
	JoinIDs []int
	// Left and Right are the children. SeqScan has none; Sort has only
	// Left.
	Left, Right *Node
}

// Plan is an immutable physical plan with cached derived structure.
type Plan struct {
	// Root is the top operator.
	Root *Node

	fingerprint string
	pipelines   []Pipeline

	// subtrees memoizes Subtree: an immutable slice, replaced (never
	// mutated) under subtreeMu when a join ID is first asked for.
	subtrees  atomic.Pointer[[]subtree]
	subtreeMu sync.Mutex
}

// subtree is one memoized Subtree result; sub is nil when the plan does
// not apply the join.
type subtree struct {
	joinID int
	sub    *Plan
}

// New constructs a Plan around the given root and precomputes its
// fingerprint and pipeline decomposition.
func New(root *Node) *Plan {
	p := &Plan{Root: root}
	p.fingerprint = string(appendFingerprint(nil, root))
	p.pipelines = decompose(root)
	return p
}

// Fingerprint returns a canonical string identifying the plan's structure;
// two plans with equal fingerprints are the same plan.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// walk visits the subtree rooted at n in pre-order.
func (n *Node) walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	n.Left.walk(f)
	n.Right.walk(f)
}

// Walk visits every node of the plan in pre-order.
func (p *Plan) Walk(f func(*Node)) { p.Root.walk(f) }

// FindJoinNode returns the node applying the given join predicate as its
// primary condition, or nil if the plan has no such node.
func (p *Plan) FindJoinNode(joinID int) *Node {
	var found *Node
	p.Walk(func(n *Node) {
		if found != nil || n.Kind == SeqScan || n.Kind == Sort || n.Kind == Aggregate {
			return
		}
		for _, id := range n.JoinIDs {
			if id == joinID {
				found = n
				return
			}
		}
	})
	return found
}

// appendFingerprint appends the canonical fingerprint of the subtree
// rooted at n: S<rel> for a scan, σ(…) and γ(…) for Sort and Aggregate, and
// <kind><id>+<id>…(<left>,<right>) for a join.
func appendFingerprint(b []byte, n *Node) []byte {
	if n == nil {
		return b
	}
	switch n.Kind {
	case SeqScan:
		b = append(b, 'S')
		return strconv.AppendInt(b, int64(n.Rel), 10)
	case Sort:
		b = append(b, "σ("...)
		return append(appendFingerprint(b, n.Left), ')')
	case Aggregate:
		b = append(b, "γ("...)
		return append(appendFingerprint(b, n.Left), ')')
	default:
		b = append(b, n.Kind.String()...)
		for i, id := range n.JoinIDs {
			if i > 0 {
				b = append(b, '+')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(appendFingerprint(append(b, '('), n.Left), ',')
		return append(appendFingerprint(b, n.Right), ')')
	}
}

// Format renders the plan as an indented tree, with relation aliases
// resolved through names (indexed by relation).
func (p *Plan) Format(names []string) string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if n == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Kind {
		case SeqScan:
			name := fmt.Sprintf("rel%d", n.Rel)
			if n.Rel >= 0 && n.Rel < len(names) {
				name = names[n.Rel]
			}
			fmt.Fprintf(&b, "Scan(%s)\n", name)
		case Sort:
			b.WriteString("Sort\n")
		case Aggregate:
			b.WriteString("Aggregate\n")
		default:
			ids := make([]string, len(n.JoinIDs))
			for i, id := range n.JoinIDs {
				ids[i] = fmt.Sprintf("j%d", id)
			}
			fmt.Fprintf(&b, "%s[%s]\n", n.Kind, strings.Join(ids, ","))
		}
		rec(n.Left, depth+1)
		rec(n.Right, depth+1)
	}
	rec(p.Root, 0)
	return b.String()
}
