// Package cost implements the plan cost model the whole stack shares.
// It provides cardinality propagation with injectable selectivities for the
// error-prone predicates (the ESS coordinates), per-operator cost functions
// that are monotone nondecreasing in every input cardinality — which makes
// Plan Cost Monotonicity (paper Eq. 5) hold by construction — and two
// platform profiles with different operator constants, used to demonstrate
// the platform dependence of PlanBouquet's behavioral bound.
package cost

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/query"
)

// Location is a point of the error-prone selectivity space: Location[d] is
// the selectivity in (0,1] of the query's d-th error-prone predicate.
type Location []float64

// Clone returns an independent copy of the location.
func (l Location) Clone() Location {
	out := make(Location, len(l))
	copy(out, l)
	return out
}

// Dominates reports whether l dominates m: l[d] >= m[d] in every dimension
// (paper Sec 2.1's ⪰ relation). Both locations must have equal length.
func (l Location) Dominates(m Location) bool {
	for d := range l {
		if l[d] < m[d] {
			return false
		}
	}
	return true
}

// String renders the location compactly in scientific notation.
func (l Location) String() string {
	s := "("
	for d, v := range l {
		if d > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3g", v)
	}
	return s + ")"
}

// Params holds the operator cost constants of one database platform.
// All costs are in abstract optimizer units (a PostgreSQL-like scale where
// one sequential page fetch costs SeqPageCost).
type Params struct {
	// Name labels the profile.
	Name string
	// PageBytes is the disk page size.
	PageBytes int
	// SeqPageCost is the cost of one sequential page fetch.
	SeqPageCost float64
	// RandPageCost is the cost of one random page fetch (index descent).
	RandPageCost float64
	// CPUTupleCost is the cost of emitting one tuple.
	CPUTupleCost float64
	// CPUOperCost is the cost of one operator-internal step per tuple.
	CPUOperCost float64
	// HashQualCost is the per-tuple cost of hashing/probing.
	HashQualCost float64
	// SortCmpCost is the per-comparison cost of sorting (n·log2 n model).
	SortCmpCost float64
	// RowsPerPage approximates intermediate-result packing for spill I/O.
	RowsPerPage float64
	// WorkMemRows is the number of rows fitting in memory for hash/sort;
	// larger inputs pay spill I/O.
	WorkMemRows float64
	// MaterializeCost is the per-tuple cost of materializing a nested-loop
	// inner.
	MaterializeCost float64
	// NLPairCost is the per-(outer×inner) pair cost of a materialized
	// nested-loop join.
	NLPairCost float64
	// IndexProbeCost is the per-outer-tuple cost of one index descent.
	IndexProbeCost float64
}

// PostgresLike returns cost constants in the spirit of PostgreSQL's
// defaults (seq_page_cost=1, cpu_tuple_cost=0.01, ...).
func PostgresLike() Params {
	return Params{
		Name:            "postgres-like",
		PageBytes:       8192,
		SeqPageCost:     1.0,
		RandPageCost:    4.0,
		CPUTupleCost:    0.01,
		CPUOperCost:     0.0025,
		HashQualCost:    0.0035,
		SortCmpCost:     0.002,
		RowsPerPage:     100,
		WorkMemRows:     1 << 20,
		MaterializeCost: 0.0025,
		NLPairCost:      0.0025,
		IndexProbeCost:  4.5,
	}
}

// CommercialLike returns a second profile with different operator trade-off
// points (cheaper sorts and index probes, pricier hashing), standing in for
// the commercial engine of paper Sec 1.1.3.
func CommercialLike() Params {
	return Params{
		Name:            "commercial-like",
		PageBytes:       16384,
		SeqPageCost:     1.0,
		RandPageCost:    2.5,
		CPUTupleCost:    0.012,
		CPUOperCost:     0.002,
		HashQualCost:    0.006,
		SortCmpCost:     0.001,
		RowsPerPage:     180,
		WorkMemRows:     1 << 21,
		MaterializeCost: 0.002,
		NLPairCost:      0.003,
		IndexProbeCost:  2.0,
	}
}

// Model evaluates plan cardinalities and costs for one query under one
// parameter profile. It precomputes filtered base cardinalities, the scan
// cost of every relation and the statistics-derived default selectivity of
// every join predicate; the selectivities of the query's epps are injected
// per evaluation through a Location. Query and Params are read-only once
// the model is built.
type Model struct {
	// Query is the evaluated query.
	Query *query.Query
	// Params is the platform profile.
	Params Params

	baseRows []float64  // filtered row count per relation
	scanNC   []NodeCost // cost of scanning each relation
	joinSel  []float64  // statistics-derived selectivity per join predicate
	eppDim   []int      // join ID -> ESS dimension, or -1
	innerNDV []float64  // join ID -> NDV of the inner (right) column

	// groupEstimate is the estimated group count for the query's GROUP BY
	// (product of the grouping columns' NDVs), 0 when the query does not
	// aggregate.
	groupEstimate float64
}

// NewModel builds a cost model for the query under the given parameters.
// The query must have been validated.
func NewModel(q *query.Query, p Params) (*Model, error) {
	m := &Model{Query: q, Params: p}
	m.baseRows = make([]float64, len(q.Relations))
	m.scanNC = make([]NodeCost, len(q.Relations))
	for i, r := range q.Relations {
		rows := float64(r.Table.Rows)
		for _, f := range q.FiltersOn(i) {
			sel, err := FilterSelectivity(r.Table, f)
			if err != nil {
				return nil, err
			}
			rows *= sel
		}
		if rows < 1 {
			rows = 1
		}
		m.baseRows[i] = rows
		self := float64(r.Table.Pages(p.PageBytes))*p.SeqPageCost +
			float64(r.Table.Rows)*p.CPUOperCost +
			rows*p.CPUTupleCost
		m.scanNC[i] = NodeCost{Rows: rows, Self: self, Total: self}
	}
	m.joinSel = make([]float64, len(q.Joins))
	m.eppDim = make([]int, len(q.Joins))
	m.innerNDV = make([]float64, len(q.Joins))
	for i, j := range q.Joins {
		lt := q.Relations[j.LeftRel].Table
		rt := q.Relations[j.RightRel].Table
		lc, ok := lt.Column(j.Left.Column)
		if !ok {
			return nil, fmt.Errorf("cost: missing column %v", j.Left)
		}
		rc, ok := rt.Column(j.Right.Column)
		if !ok {
			return nil, fmt.Errorf("cost: missing column %v", j.Right)
		}
		m.joinSel[i] = 1.0 / math.Max(float64(lc.Distinct), float64(rc.Distinct))
		m.innerNDV[i] = float64(rc.Distinct)
		m.eppDim[i] = -1
	}
	for d, id := range q.EPPs {
		m.eppDim[id] = d
	}
	if len(q.GroupBy) > 0 {
		m.groupEstimate = 1
		for _, gb := range q.GroupBy {
			rel, _ := q.RelationIndex(gb.Alias)
			if col, ok := q.Relations[rel].Table.Column(gb.Column); ok {
				m.groupEstimate *= float64(col.Distinct)
			}
		}
	}
	return m, nil
}

// MustNewModel is NewModel that panics on error.
func MustNewModel(q *query.Query, p Params) *Model {
	m, err := NewModel(q, p)
	if err != nil {
		panic(err)
	}
	return m
}

// Selectivity returns the selectivity of the join predicate at the given
// ESS location: the injected coordinate for an epp, the statistics default
// otherwise.
func (m *Model) Selectivity(joinID int, at Location) float64 {
	if d := m.eppDim[joinID]; d >= 0 {
		return at[d]
	}
	return m.joinSel[joinID]
}

// EstimateLocation returns the traditional optimizer's estimate q_e as an
// ESS location: the statistics-derived selectivity of each epp.
func (m *Model) EstimateLocation() Location {
	loc := make(Location, len(m.Query.EPPs))
	for d, id := range m.Query.EPPs {
		loc[d] = m.joinSel[id]
	}
	return loc
}

// FilterSelectivity estimates a filter predicate's selectivity from table
// statistics using textbook System-R formulas.
func FilterSelectivity(t *catalog.Table, f query.Filter) (float64, error) {
	col, ok := t.Column(f.Col.Column)
	if !ok {
		return 0, fmt.Errorf("cost: table %q has no column %q", t.Name, f.Col.Column)
	}
	ndv := float64(col.Distinct)
	frac := func(v float64) float64 { // fraction of domain below v
		if col.Max <= col.Min {
			return 0.5
		}
		x := (v - col.Min) / (col.Max - col.Min)
		return clamp01(x)
	}
	var sel float64
	switch f.Op {
	case query.OpEq:
		sel = 1 / ndv
	case query.OpNe:
		sel = 1 - 1/ndv
	case query.OpLt, query.OpLe:
		sel = frac(f.Args[0])
	case query.OpGt, query.OpGe:
		sel = 1 - frac(f.Args[0])
	case query.OpBetween:
		if len(f.Args) != 2 {
			return 0, fmt.Errorf("cost: BETWEEN needs 2 args, got %d", len(f.Args))
		}
		sel = clamp01(frac(f.Args[1]) - frac(f.Args[0]))
	case query.OpIn:
		sel = clamp01(float64(len(f.Args)) / ndv)
	default:
		return 0, fmt.Errorf("cost: unsupported filter op %v", f.Op)
	}
	const selFloor = 1e-9
	if sel < selFloor {
		sel = selFloor
	}
	sel *= 1 - col.NullFrac
	return clamp01At(sel, selFloor), nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clamp01At(x, lo float64) float64 {
	if x < lo {
		return lo
	}
	if x > 1 {
		return 1
	}
	return x
}
