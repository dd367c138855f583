package repro

import (
	"context"
	"fmt"

	"repro/internal/workload"
)

// BenchmarkQuery is one query of the paper's evaluation suite: the SQL, the
// error-prone predicate designation and the recommended ESS grid.
type BenchmarkQuery = workload.Spec

// BenchmarkQueries returns the TPC-DS evaluation suite (the paper's
// Fig. 8-13 workload): eleven queries spanning 3-6 error-prone predicates.
func BenchmarkQueries() []BenchmarkQuery { return workload.TPCDSQueries() }

// BenchmarkQueryByName resolves a suite query, a Q91 dimensional variant
// ("2D_Q91".."6D_Q91") or "JOB_1a".
func BenchmarkQueryByName(name string) (BenchmarkQuery, bool) { return workload.ByName(name) }

// JOB1aBenchmark returns the Join Order Benchmark Q1a analogue (Sec 6.5).
func JOB1aBenchmark() BenchmarkQuery { return workload.JOB1a() }

// BenchmarkOptions returns Options that defer the grid shape to each
// benchmark query's recommended resolution (see NewBenchmarkSession).
func BenchmarkOptions() Options {
	o := DefaultOptions()
	o.GridRes, o.GridLo = 0, 0
	return o
}

// NewBenchmarkSession builds a Session for a benchmark query, choosing the
// matching catalog automatically. A zero opts.GridRes uses the query's
// recommended resolution. It is NewBenchmarkSessionContext with a
// background context.
func NewBenchmarkSession(bq BenchmarkQuery, opts Options) (*Session, error) {
	return NewBenchmarkSessionContext(context.Background(), bq, opts)
}

// NewBenchmarkSessionContext is NewBenchmarkSession with cancellation: the
// parallel ESS construction aborts with the context's error on cancel or
// deadline expiry (see newSessionContext). The session's query carries the
// benchmark's name, so artifacts such as the robustness atlas are labelled
// with it.
func NewBenchmarkSessionContext(ctx context.Context, bq BenchmarkQuery, opts Options) (*Session, error) {
	var cat *Catalog
	switch bq.Catalog {
	case "imdb":
		cat = IMDBCatalog()
	case "tpch":
		cat = TPCHCatalog(1)
	case "tpcds", "":
		cat = TPCDSCatalog(100)
	default:
		return nil, fmt.Errorf("repro: unknown benchmark catalog %q", bq.Catalog)
	}
	if opts.GridRes == 0 {
		opts.GridRes = bq.GridRes
	}
	if opts.GridLo == 0 {
		opts.GridLo = bq.GridLo
	}
	s, err := newSessionContext(ctx, cat, bq.SQL, bq.EPPs, opts)
	if err != nil {
		return nil, err
	}
	s.query.Name = bq.Name
	return s, nil
}
