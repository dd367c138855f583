// Package query defines the bound representation of an SPJ query: the
// relations it touches, its equi-join graph, its filter predicates, and the
// designation of which join predicates are error-prone (the epps of the
// paper). All downstream components — plan, cost, optimizer, ess and the
// robust execution algorithms — operate on this representation.
package query

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// ColumnRef names a column of one of the query's relations via the
// relation's alias.
type ColumnRef struct {
	// Alias is the relation alias within the query.
	Alias string
	// Column is the column name within that relation.
	Column string
}

// String returns the usual alias.column rendering.
func (c ColumnRef) String() string { return c.Alias + "." + c.Column }

// Relation is one base-table occurrence in the FROM list.
type Relation struct {
	// Alias is the name the query uses for this occurrence; it defaults to
	// the table name.
	Alias string
	// Table is the catalog table backing the relation.
	Table *catalog.Table
}

// Join is an equi-join predicate between two relations.
type Join struct {
	// ID is the predicate's index within Query.Joins.
	ID int
	// Left and Right are the joined columns. Left.Alias's relation index is
	// always lower than Right.Alias's, establishing a canonical direction.
	Left, Right ColumnRef
	// LeftRel and RightRel are the indices into Query.Relations.
	LeftRel, RightRel int
}

// String renders the predicate as "l.a = r.b".
func (j Join) String() string { return j.Left.String() + " = " + j.Right.String() }

// FilterOp enumerates the comparison operators supported in filter
// predicates.
type FilterOp int

// Supported filter operators.
const (
	OpEq FilterOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
	OpIn
)

// String returns the SQL spelling of the operator.
func (op FilterOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	}
	return fmt.Sprintf("FilterOp(%d)", int(op))
}

// Filter is a single-relation predicate of the form col OP args.
type Filter struct {
	// ID is the predicate's index within Query.Filters.
	ID int
	// Col is the filtered column.
	Col ColumnRef
	// Rel is the index into Query.Relations of the filtered relation.
	Rel int
	// Op is the comparison operator.
	Op FilterOp
	// Args holds the literal operands: one value for the simple comparisons,
	// two (low, high) for BETWEEN, and the list members for IN. String
	// literals are represented by their estimation-relevant surrogate (see
	// sqlmini), so only numeric values appear here.
	Args []float64
	// Text preserves the original literal rendering for display.
	Text string
}

// String renders the predicate for display.
func (f Filter) String() string {
	if f.Text != "" {
		return f.Text
	}
	return fmt.Sprintf("%s %s %v", f.Col, f.Op, f.Args)
}

// Query is a bound select-project-join query.
type Query struct {
	// Name is an optional label (e.g. "4D_Q91").
	Name string
	// Relations lists the FROM entries.
	Relations []Relation
	// Joins lists the equi-join predicates.
	Joins []Join
	// Filters lists the single-relation predicates.
	Filters []Filter
	// EPPs lists, in dimension order, the IDs of the error-prone join
	// predicates. Dimension j of the ESS corresponds to Joins[EPPs[j]].
	EPPs []int
	// GroupBy lists the grouping columns, if the query aggregates.
	GroupBy []ColumnRef

	byAlias map[string]int
}

// Validate checks internal consistency: alias uniqueness, join/filter
// references, a connected join graph, and well-formed epp designations.
// It also (re)builds the internal alias index.
func (q *Query) Validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("query %q: no relations", q.Name)
	}
	q.byAlias = make(map[string]int, len(q.Relations))
	for i, r := range q.Relations {
		a := strings.ToLower(r.Alias)
		if a == "" {
			return fmt.Errorf("query %q: relation %d has empty alias", q.Name, i)
		}
		if _, dup := q.byAlias[a]; dup {
			return fmt.Errorf("query %q: duplicate alias %q", q.Name, r.Alias)
		}
		if r.Table == nil {
			return fmt.Errorf("query %q: relation %q has no table", q.Name, r.Alias)
		}
		q.byAlias[a] = i
	}
	for i := range q.Joins {
		j := &q.Joins[i]
		if j.ID != i {
			return fmt.Errorf("query %q: join %d has ID %d", q.Name, i, j.ID)
		}
		var ok bool
		if j.LeftRel, ok = q.RelationIndex(j.Left.Alias); !ok {
			return fmt.Errorf("query %q: join %v references unknown alias %q", q.Name, j, j.Left.Alias)
		}
		if j.RightRel, ok = q.RelationIndex(j.Right.Alias); !ok {
			return fmt.Errorf("query %q: join %v references unknown alias %q", q.Name, j, j.Right.Alias)
		}
		if j.LeftRel == j.RightRel {
			return fmt.Errorf("query %q: join %v is a self-comparison", q.Name, j)
		}
		if j.LeftRel > j.RightRel {
			j.Left, j.Right = j.Right, j.Left
			j.LeftRel, j.RightRel = j.RightRel, j.LeftRel
		}
		if !q.Relations[j.LeftRel].Table.HasColumn(j.Left.Column) {
			return fmt.Errorf("query %q: unknown column %v", q.Name, j.Left)
		}
		if !q.Relations[j.RightRel].Table.HasColumn(j.Right.Column) {
			return fmt.Errorf("query %q: unknown column %v", q.Name, j.Right)
		}
	}
	for i := range q.Filters {
		f := &q.Filters[i]
		if f.ID != i {
			return fmt.Errorf("query %q: filter %d has ID %d", q.Name, i, f.ID)
		}
		var ok bool
		if f.Rel, ok = q.RelationIndex(f.Col.Alias); !ok {
			return fmt.Errorf("query %q: filter %v references unknown alias %q", q.Name, f, f.Col.Alias)
		}
		if !q.Relations[f.Rel].Table.HasColumn(f.Col.Column) {
			return fmt.Errorf("query %q: unknown column %v", q.Name, f.Col)
		}
	}
	for i, gb := range q.GroupBy {
		rel, ok := q.RelationIndex(gb.Alias)
		if !ok {
			return fmt.Errorf("query %q: group-by %v references unknown alias %q", q.Name, gb, gb.Alias)
		}
		if !q.Relations[rel].Table.HasColumn(gb.Column) {
			return fmt.Errorf("query %q: unknown group-by column %v", q.Name, gb)
		}
		_ = i
	}
	seen := make(map[int]bool, len(q.EPPs))
	for _, id := range q.EPPs {
		if id < 0 || id >= len(q.Joins) {
			return fmt.Errorf("query %q: epp join id %d out of range", q.Name, id)
		}
		if seen[id] {
			return fmt.Errorf("query %q: duplicate epp join id %d", q.Name, id)
		}
		seen[id] = true
	}
	if !q.Connected() {
		return fmt.Errorf("query %q: join graph is disconnected", q.Name)
	}
	return nil
}

// RelationIndex returns the index of the relation with the given alias.
func (q *Query) RelationIndex(alias string) (int, bool) {
	i, ok := q.byAlias[strings.ToLower(alias)]
	return i, ok
}

// D returns the ESS dimensionality, i.e. the number of epps.
func (q *Query) D() int { return len(q.EPPs) }

// IsEPP reports whether the join predicate with the given ID is error-prone,
// and if so returns its ESS dimension.
func (q *Query) IsEPP(joinID int) (dim int, ok bool) {
	for d, id := range q.EPPs {
		if id == joinID {
			return d, true
		}
	}
	return -1, false
}

// FiltersOn returns the filters applying to relation index rel.
func (q *Query) FiltersOn(rel int) []Filter {
	var out []Filter
	for _, f := range q.Filters {
		if f.Rel == rel {
			out = append(out, f)
		}
	}
	return out
}

// Connected reports whether the join graph spans all relations.
func (q *Query) Connected() bool {
	if len(q.Relations) == 0 {
		return false
	}
	adj := make([][]int, len(q.Relations))
	for _, j := range q.Joins {
		adj[j.LeftRel] = append(adj[j.LeftRel], j.RightRel)
		adj[j.RightRel] = append(adj[j.RightRel], j.LeftRel)
	}
	seen := make([]bool, len(q.Relations))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == len(q.Relations)
}

// MarkEPPs designates the join predicates rendered as "alias.col = alias.col"
// (order-insensitive) as the error-prone predicates, in the order given.
// It returns an error if any predicate is not found.
func (q *Query) MarkEPPs(preds ...string) error {
	q.EPPs = q.EPPs[:0]
	for _, p := range preds {
		id, err := q.findJoin(p)
		if err != nil {
			return err
		}
		q.EPPs = append(q.EPPs, id)
	}
	return q.Validate()
}

func (q *Query) findJoin(pred string) (int, error) {
	norm := func(a, b string) string {
		a, b = strings.ToLower(strings.TrimSpace(a)), strings.ToLower(strings.TrimSpace(b))
		if a > b {
			a, b = b, a
		}
		return a + "=" + b
	}
	parts := strings.SplitN(pred, "=", 2)
	if len(parts) != 2 {
		return -1, fmt.Errorf("query %q: malformed join predicate %q", q.Name, pred)
	}
	want := norm(parts[0], parts[1])
	for _, j := range q.Joins {
		if norm(j.Left.String(), j.Right.String()) == want {
			return j.ID, nil
		}
	}
	return -1, fmt.Errorf("query %q: no join predicate %q", q.Name, pred)
}

// String renders the query compactly for logs and traces.
func (q *Query) String() string {
	var b strings.Builder
	if q.Name != "" {
		fmt.Fprintf(&b, "%s: ", q.Name)
	}
	names := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		names[i] = r.Alias
	}
	b.WriteString(strings.Join(names, " ⋈ "))
	if len(q.EPPs) > 0 {
		eppStrs := make([]string, len(q.EPPs))
		for d, id := range q.EPPs {
			eppStrs[d] = q.Joins[id].String()
		}
		fmt.Fprintf(&b, " [epps: %s]", strings.Join(eppStrs, ", "))
	}
	return b.String()
}
