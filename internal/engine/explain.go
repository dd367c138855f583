package engine

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/plan"
)

// ExplainAt renders an EXPLAIN-ANALYZE-style view of a plan at location
// at: the operator tree annotated with each node's estimated output
// cardinality and cumulative cost under the model, resolving relation names
// through the query. Spill-mode views (Subtree) render the same way.
func ExplainAt(m *cost.Model, p *plan.Plan, at cost.Location) string {
	detail := m.EvalTree(p, at)
	names := make([]string, len(m.Query.Relations))
	for i, r := range m.Query.Relations {
		names[i] = r.Alias
	}
	var b strings.Builder
	var rec func(n *plan.Node, depth int)
	rec = func(n *plan.Node, depth int) {
		if n == nil {
			return
		}
		nc, known := detail[n]
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Kind {
		case plan.SeqScan:
			fmt.Fprintf(&b, "Scan %s", names[n.Rel])
		case plan.Sort:
			b.WriteString("Sort")
		case plan.Aggregate:
			b.WriteString("HashAggregate")
		default:
			preds := make([]string, len(n.JoinIDs))
			for i, id := range n.JoinIDs {
				preds[i] = m.Query.Joins[id].String()
			}
			fmt.Fprintf(&b, "%s on %s", opName(n.Kind), strings.Join(preds, " AND "))
		}
		if known {
			fmt.Fprintf(&b, "  (rows=%.3g cost=%.4g)", nc.Rows, nc.Total)
		}
		b.WriteByte('\n')
		rec(n.Left, depth+1)
		// An index nested-loop's inner side is reached through its index;
		// render it as an access path rather than a scanned child.
		if n.Kind == plan.IndexNestLoop && n.Right != nil {
			b.WriteString(strings.Repeat("  ", depth+1))
			fmt.Fprintf(&b, "Index probe %s\n", names[n.Right.Rel])
			return
		}
		rec(n.Right, depth+1)
	}
	rec(p.Root, 0)
	return b.String()
}

func opName(k plan.OpKind) string {
	switch k {
	case plan.HashJoin:
		return "Hash Join"
	case plan.MergeJoin:
		return "Merge Join"
	case plan.NestLoop:
		return "Nested Loop"
	case plan.IndexNestLoop:
		return "Index Nested Loop"
	}
	return k.String()
}

// ExplainPipelines lists a plan's pipelines in execution order with their
// operators — the decomposition driving spill-node identification
// (Sec 3.1.1/3.1.3).
func ExplainPipelines(m *cost.Model, p *plan.Plan) string {
	names := make([]string, len(m.Query.Relations))
	for i, r := range m.Query.Relations {
		names[i] = r.Alias
	}
	var b strings.Builder
	for i, pl := range p.Pipelines() {
		fmt.Fprintf(&b, "L%d:", i+1)
		for _, n := range pl.Nodes {
			switch n.Kind {
			case plan.SeqScan:
				fmt.Fprintf(&b, " Scan(%s)", names[n.Rel])
			case plan.Sort:
				b.WriteString(" Sort")
			case plan.Aggregate:
				b.WriteString(" Agg")
			default:
				fmt.Fprintf(&b, " %s[j%d]", n.Kind, n.JoinIDs[0])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
