package rowexec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
)

// ErrBudget is returned when an execution exhausts its cost budget; the
// paper's protocol forcibly terminates the plan and discards partial
// results.
var ErrBudget = errors.New("rowexec: cost budget exhausted")

// Engine executes physical plans over synthetic rows for one query.
type Engine struct {
	// Query is the bound query.
	Query *query.Query
	// Params supplies the work-meter constants (the same profile the cost
	// model uses, so measured spend is comparable to modeled cost).
	Params cost.Params
	// RowCap bounds every base relation's generated cardinality
	// (0 = catalog cardinality).
	RowCap int64
}

// field identifies one column of a tuple: the producing relation and the
// column name.
type field struct {
	rel int
	col string
}

type schema []field

func (s schema) find(rel int, col string) int {
	for i, f := range s {
		if f.rel == rel && f.col == col {
			return i
		}
	}
	return -1
}

// meter accumulates work in cost-model units and enforces the budget, and —
// when a context is attached — polls for cancellation at operator-row
// granularity so a deadline aborts a long scan or join mid-stream.
type meter struct {
	spent float64
	stop  float64 // forced-termination point: the budget
	ctx   context.Context
	ops   int
}

// ctxPollMask controls how often the meter polls the context: every
// (mask+1) charges. Charges are per-tuple, so 1024 keeps the poll off the
// hot path while bounding cancellation latency to ~a thousand rows.
const ctxPollMask = 1023

func (m *meter) charge(units float64) error {
	m.spent += units
	if m.spent > m.stop {
		return ErrBudget
	}
	if m.ctx != nil {
		m.ops++
		if m.ops&ctxPollMask == 0 {
			if err := m.ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// NodeStats records one operator's observed behaviour.
type NodeStats struct {
	// OutRows is the number of tuples the operator emitted.
	OutRows int64
	// LeftRows and RightRows are the consumed input cardinalities
	// (RightRows is the probed base cardinality for index nested-loops).
	LeftRows, RightRows int64
}

// Result summarizes a (possibly truncated) execution.
type Result struct {
	// Completed reports whether the plan ran to completion within budget.
	Completed bool
	// Spent is the metered work in cost units.
	Spent float64
	// OutRows is the number of result tuples produced before termination.
	OutRows int64
	// Stats holds per-operator observations.
	Stats map[*plan.Node]*NodeStats
}

// Run executes the plan to completion or budget exhaustion. A non-positive
// budget means unlimited.
func (e *Engine) Run(p *plan.Plan, budget float64) (Result, error) {
	return e.RunContext(context.Background(), p, budget)
}

// RunContext is Run with cancellation: the work meter polls the context at
// row granularity, so a deadline or cancel aborts the execution mid-operator
// with the context's error.
func (e *Engine) RunContext(ctx context.Context, p *plan.Plan, budget float64) (Result, error) {
	return e.runNode(ctx, p.Root, budget)
}

// SpillRun executes only the subtree rooted at the node applying the ESS
// dimension's predicate, discarding its output — spill-mode execution
// (Sec 3.1.2). The returned result's OutRows is the spilled operator's
// observed output count; combined with the input cardinalities it yields
// the monitored selectivity.
func (e *Engine) SpillRun(p *plan.Plan, dim int, budget float64) (Result, *NodeStats, error) {
	return e.SpillRunContext(context.Background(), p, dim, budget)
}

// SpillRunContext is SpillRun with cancellation (see RunContext).
func (e *Engine) SpillRunContext(ctx context.Context, p *plan.Plan, dim int, budget float64) (Result, *NodeStats, error) {
	joinID := e.Query.EPPs[dim]
	sub := p.Subtree(joinID)
	if sub == nil {
		return Result{}, nil, fmt.Errorf("rowexec: plan does not apply epp dimension %d", dim)
	}
	res, err := e.runNode(ctx, sub.Root, budget)
	if err != nil {
		return res, nil, err
	}
	return res, res.Stats[sub.Root], nil
}

// ObservedSelectivity converts a join node's observed counts into the
// predicate selectivity estimate out/(l·r) — what run-time monitoring
// reports.
func ObservedSelectivity(st *NodeStats) float64 {
	if st == nil || st.LeftRows == 0 || st.RightRows == 0 {
		return 0
	}
	return float64(st.OutRows) / (float64(st.LeftRows) * float64(st.RightRows))
}

func (e *Engine) runNode(ctx context.Context, root *plan.Node, budget float64) (Result, error) {
	if budget <= 0 {
		budget = math.Inf(1)
	}
	m := &meter{stop: budget, ctx: ctx}
	stats := map[*plan.Node]*NodeStats{}
	_, rows, err := e.exec(root, m, stats)
	res := Result{
		Completed: err == nil,
		Spent:     math.Min(m.spent, m.stop),
		Stats:     stats,
	}
	if err == nil {
		res.OutRows = int64(len(rows))
	} else if st, ok := stats[root]; ok {
		res.OutRows = st.OutRows
	}
	if err != nil && !errors.Is(err, ErrBudget) {
		return res, err
	}
	return res, nil
}

// exec evaluates the subtree, returning its schema and materialized output.
// Materialization keeps the implementation simple while preserving the
// metered work and budget semantics (the meter charges as rows are
// produced, so truncation points are faithful).
func (e *Engine) exec(n *plan.Node, m *meter, stats map[*plan.Node]*NodeStats) (schema, [][]Value, error) {
	st := &NodeStats{}
	stats[n] = st
	p := &e.Params
	switch n.Kind {
	case plan.SeqScan:
		return e.scan(n, m, st)

	case plan.Sort:
		sch, rows, err := e.exec(n.Left, m, stats)
		if err != nil {
			return nil, nil, err
		}
		nrows := math.Max(float64(len(rows)), 2)
		if err := m.charge(float64(len(rows)) * math.Log2(nrows) * p.SortCmpCost); err != nil {
			return nil, nil, err
		}
		st.OutRows = int64(len(rows))
		st.LeftRows = st.OutRows
		return sch, rows, nil

	case plan.Aggregate:
		sch, rows, err := e.exec(n.Left, m, stats)
		if err != nil {
			return nil, nil, err
		}
		st.LeftRows = int64(len(rows))
		// Group by the query's GROUP BY columns; emit one representative
		// tuple per group (aggregate functions are not modeled — the
		// robustness machinery only needs cardinalities and work).
		keyIdx := make([]int, 0, len(e.Query.GroupBy))
		for _, gb := range e.Query.GroupBy {
			rel, okRel := e.Query.RelationIndex(gb.Alias)
			if !okRel {
				return nil, nil, fmt.Errorf("rowexec: unknown group-by alias %q", gb.Alias)
			}
			i := sch.find(rel, gb.Column)
			if i < 0 {
				return nil, nil, fmt.Errorf("rowexec: group-by column %v missing from schema", gb)
			}
			keyIdx = append(keyIdx, i)
		}
		groups := map[string]int{}
		var out [][]Value
		var keyBuf []byte
		for _, row := range rows {
			if err := m.charge(p.CPUOperCost + p.HashQualCost); err != nil {
				return nil, nil, err
			}
			keyBuf = keyBuf[:0]
			for _, i := range keyIdx {
				v := row[i]
				for s := 0; s < 64; s += 8 {
					keyBuf = append(keyBuf, byte(v>>uint(s)))
				}
			}
			if _, seen := groups[string(keyBuf)]; !seen {
				groups[string(keyBuf)] = len(out)
				if err := m.charge(p.CPUTupleCost); err != nil {
					return nil, nil, err
				}
				out = append(out, row)
				st.OutRows++
			}
		}
		return sch, out, nil

	case plan.HashJoin:
		lsch, lrows, err := e.exec(n.Left, m, stats)
		if err != nil {
			return nil, nil, err
		}
		rsch, rrows, err := e.exec(n.Right, m, stats)
		if err != nil {
			return nil, nil, err
		}
		st.LeftRows, st.RightRows = int64(len(lrows)), int64(len(rrows))
		key := e.Query.Joins[n.JoinIDs[0]]
		li, ri, err := joinCols(lsch, rsch, key)
		if err != nil {
			return nil, nil, err
		}
		ht := make(map[Value][]int, len(rrows))
		for idx, r := range rrows {
			if err := m.charge(p.CPUOperCost + p.HashQualCost); err != nil {
				return nil, nil, err
			}
			ht[r[ri]] = append(ht[r[ri]], idx)
		}
		out := make([][]Value, 0, len(lrows))
		osch := append(append(schema{}, lsch...), rsch...)
		for _, l := range lrows {
			if err := m.charge(p.HashQualCost); err != nil {
				return nil, nil, err
			}
			for _, idx := range ht[l[li]] {
				joined := concat(l, rrows[idx])
				if !e.extraPredsMatch(n, osch, joined) {
					continue
				}
				if err := m.charge(p.CPUTupleCost); err != nil {
					return nil, nil, err
				}
				out = append(out, joined)
				st.OutRows++
			}
		}
		return osch, out, nil

	case plan.MergeJoin:
		lsch, lrows, err := e.exec(n.Left, m, stats)
		if err != nil {
			return nil, nil, err
		}
		rsch, rrows, err := e.exec(n.Right, m, stats)
		if err != nil {
			return nil, nil, err
		}
		st.LeftRows, st.RightRows = int64(len(lrows)), int64(len(rrows))
		key := e.Query.Joins[n.JoinIDs[0]]
		li, ri, err := joinCols(lsch, rsch, key)
		if err != nil {
			return nil, nil, err
		}
		sortRows(lrows, li)
		sortRows(rrows, ri)
		if err := m.charge(float64(len(lrows)+len(rrows)) * p.CPUOperCost); err != nil {
			return nil, nil, err
		}
		osch := append(append(schema{}, lsch...), rsch...)
		var out [][]Value
		i, j := 0, 0
		for i < len(lrows) && j < len(rrows) {
			lv, rv := lrows[i][li], rrows[j][ri]
			switch {
			case lv < rv:
				i++
			case lv > rv:
				j++
			default:
				jEnd := j
				for jEnd < len(rrows) && rrows[jEnd][ri] == rv {
					jEnd++
				}
				for ; i < len(lrows) && lrows[i][li] == lv; i++ {
					for k := j; k < jEnd; k++ {
						joined := concat(lrows[i], rrows[k])
						if !e.extraPredsMatch(n, osch, joined) {
							continue
						}
						if err := m.charge(p.CPUTupleCost); err != nil {
							return nil, nil, err
						}
						out = append(out, joined)
						st.OutRows++
					}
				}
				j = jEnd
			}
		}
		return osch, out, nil

	case plan.NestLoop:
		lsch, lrows, err := e.exec(n.Left, m, stats)
		if err != nil {
			return nil, nil, err
		}
		rsch, rrows, err := e.exec(n.Right, m, stats)
		if err != nil {
			return nil, nil, err
		}
		st.LeftRows, st.RightRows = int64(len(lrows)), int64(len(rrows))
		if err := m.charge(float64(len(rrows)) * p.MaterializeCost); err != nil {
			return nil, nil, err
		}
		osch := append(append(schema{}, lsch...), rsch...)
		var out [][]Value
		for _, l := range lrows {
			for _, r := range rrows {
				if err := m.charge(p.NLPairCost); err != nil {
					return nil, nil, err
				}
				joined := concat(l, r)
				if !e.predsMatch(n.JoinIDs, osch, joined) {
					continue
				}
				if err := m.charge(p.CPUTupleCost); err != nil {
					return nil, nil, err
				}
				out = append(out, joined)
				st.OutRows++
			}
		}
		return osch, out, nil

	case plan.IndexNestLoop:
		lsch, lrows, err := e.exec(n.Left, m, stats)
		if err != nil {
			return nil, nil, err
		}
		st.LeftRows = int64(len(lrows))
		innerRel := n.Right.Rel
		innerRows := e.relRows(innerRel)
		st.RightRows = innerRows
		key := e.Query.Joins[n.JoinIDs[0]]
		// Identify which side of the key belongs to the inner relation.
		innerCol, outerRef := key.Right, key.Left
		if key.LeftRel == innerRel {
			innerCol, outerRef = key.Left, key.Right
		}
		icol, _ := e.Query.Relations[innerRel].Table.Column(innerCol.Column)
		// Build the index (not charged: indexes pre-exist).
		index := map[Value][]int64{}
		for row := int64(0); row < innerRows; row++ {
			index[ColumnValue(icol, row)] = append(index[ColumnValue(icol, row)], row)
		}
		oRel, _ := e.Query.RelationIndex(outerRef.Alias)
		oi := lsch.find(oRel, outerRef.Column)
		if oi < 0 {
			return nil, nil, fmt.Errorf("rowexec: outer column %v missing from schema", outerRef)
		}
		rsch := e.relSchema(innerRel)
		osch := append(append(schema{}, lsch...), rsch...)
		var out [][]Value
		for _, l := range lrows {
			if err := m.charge(p.IndexProbeCost); err != nil {
				return nil, nil, err
			}
			for _, row := range index[l[oi]] {
				if err := m.charge(p.RandPageCost + p.CPUTupleCost); err != nil {
					return nil, nil, err
				}
				joined := concat(l, e.relTuple(innerRel, row))
				if !e.extraPredsMatch(n, osch, joined) {
					continue
				}
				out = append(out, joined)
				st.OutRows++
			}
		}
		return osch, out, nil
	}
	return nil, nil, fmt.Errorf("rowexec: unsupported operator %v", n.Kind)
}

// scan generates a base relation's rows, applying its filters.
func (e *Engine) scan(n *plan.Node, m *meter, st *NodeStats) (schema, [][]Value, error) {
	p := &e.Params
	rel := n.Rel
	tab := e.Query.Relations[rel].Table
	total := e.relRows(rel)
	rowsPerPage := float64(p.PageBytes / tab.RowBytes)
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	pageShare := p.SeqPageCost / rowsPerPage
	sch := e.relSchema(rel)
	filters := e.Query.FiltersOn(rel)
	var out [][]Value
	for row := int64(0); row < total; row++ {
		if err := m.charge(p.CPUOperCost + pageShare); err != nil {
			return nil, nil, err
		}
		tuple := e.relTuple(rel, row)
		if !passFilters(tab, sch, rel, tuple, filters) {
			continue
		}
		if err := m.charge(p.CPUTupleCost); err != nil {
			return nil, nil, err
		}
		out = append(out, tuple)
		st.OutRows++
	}
	st.LeftRows = total
	return sch, out, nil
}

func (e *Engine) relRows(rel int) int64 {
	t := Table{Meta: e.Query.Relations[rel].Table, RowCap: e.RowCap}
	return t.Rows()
}

func (e *Engine) relSchema(rel int) schema {
	tab := e.Query.Relations[rel].Table
	sch := make(schema, len(tab.Columns))
	for i, c := range tab.Columns {
		sch[i] = field{rel: rel, col: c.Name}
	}
	return sch
}

func (e *Engine) relTuple(rel int, row int64) []Value {
	tab := e.Query.Relations[rel].Table
	t := make([]Value, len(tab.Columns))
	for i, c := range tab.Columns {
		t[i] = ColumnValue(c, row)
	}
	return t
}

func concat(a, b []Value) []Value {
	out := make([]Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// joinCols locates the key columns of a join in the left/right schemas. A
// malformed plan (key columns absent from both orientations) returns an
// error rather than panicking, so the executor degrades cleanly.
func joinCols(lsch, rsch schema, j query.Join) (li, ri int, err error) {
	li = lsch.find(j.LeftRel, j.Left.Column)
	ri = rsch.find(j.RightRel, j.Right.Column)
	if li < 0 || ri < 0 {
		// The canonical direction may be flipped relative to the plan's
		// child order.
		li = lsch.find(j.RightRel, j.Right.Column)
		ri = rsch.find(j.LeftRel, j.Left.Column)
	}
	if li < 0 || ri < 0 {
		return -1, -1, fmt.Errorf("rowexec: join %v columns missing from schemas", j)
	}
	return li, ri, nil
}

// predsMatch evaluates all the listed join predicates over a joined tuple.
func (e *Engine) predsMatch(ids []int, sch schema, tuple []Value) bool {
	for _, id := range ids {
		j := e.Query.Joins[id]
		a := sch.find(j.LeftRel, j.Left.Column)
		b := sch.find(j.RightRel, j.Right.Column)
		if a < 0 || b < 0 || tuple[a] != tuple[b] {
			return false
		}
	}
	return true
}

// extraPredsMatch evaluates the node's secondary predicates (the first is
// the physical join condition already applied).
func (e *Engine) extraPredsMatch(n *plan.Node, sch schema, tuple []Value) bool {
	if len(n.JoinIDs) <= 1 {
		return true
	}
	return e.predsMatch(n.JoinIDs[1:], sch, tuple)
}

func sortRows(rows [][]Value, key int) {
	sort.Slice(rows, func(i, j int) bool { return rows[i][key] < rows[j][key] })
}

// passFilters applies the relation's filter predicates to a tuple.
func passFilters(tab *catalog.Table, sch schema, rel int, tuple []Value, filters []query.Filter) bool {
	for _, f := range filters {
		i := sch.find(rel, f.Col.Column)
		if i < 0 {
			return false
		}
		col, ok := tab.Column(f.Col.Column)
		if !ok {
			return false
		}
		v := NormalizedValue(col, tuple[i])
		if !filterHolds(f, v) {
			return false
		}
	}
	return true
}

func filterHolds(f query.Filter, v float64) bool {
	switch f.Op {
	case query.OpEq:
		return v == f.Args[0]
	case query.OpNe:
		return v != f.Args[0]
	case query.OpLt:
		return v < f.Args[0]
	case query.OpLe:
		return v <= f.Args[0]
	case query.OpGt:
		return v > f.Args[0]
	case query.OpGe:
		return v >= f.Args[0]
	case query.OpBetween:
		return v >= f.Args[0] && v <= f.Args[1]
	case query.OpIn:
		for _, a := range f.Args {
			if v == a {
				return true
			}
		}
		return false
	}
	return false
}
