package bouquet

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/workload"
)

// referenceReduce is the oracle for Reduce: the straightforward anorexic
// reduction loop that re-costs every surviving plan from scratch with
// Model.Eval at every cell. It swallows victims in the same order and
// applies the same rule: the cheapest survivor within (1+lambda) of
// optimal wins, the lowest POSP index among equal costs. It returns the
// per-cell assignment and the ascending survivor list.
func referenceReduce(s *ess.Space, lambda float64) ([]int32, []int) {
	g := s.Grid
	n := g.Size()
	planIdx := make([]int32, n)
	cellsOf := map[int][]int{}
	for ci := 0; ci < n; ci++ {
		id := s.PlanIDAt(ci)
		planIdx[ci] = int32(id)
		cellsOf[id] = append(cellsOf[id], ci)
	}
	kept := map[int]bool{}
	order := make([]int, 0, len(cellsOf))
	for id := range cellsOf {
		kept[id] = true
		order = append(order, id)
	}
	survivors := func() []int {
		ids := make([]int, 0, len(kept))
		for id := range kept {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}
	if lambda <= 0 {
		return planIdx, survivors()
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if len(cellsOf[a]) != len(cellsOf[b]) {
			return len(cellsOf[a]) < len(cellsOf[b])
		}
		return a < b
	})
	plans := s.Plans()
	for _, victim := range order {
		if len(kept) == 1 {
			break
		}
		type move struct {
			ci int
			to int32
		}
		var moves []move
		ok := true
		ids := survivors()
		for _, ci := range cellsOf[victim] {
			if int(planIdx[ci]) != victim {
				continue
			}
			loc := g.Location(ci)
			limit := s.CostAt(ci) * (1 + lambda)
			bestID, bestCost := -1, limit
			for _, id := range ids {
				if id == victim {
					continue
				}
				if c := s.Model.Eval(plans[id], loc); c <= limit && (bestID < 0 || c < bestCost) {
					bestID, bestCost = id, c
				}
			}
			if bestID < 0 {
				ok = false
				break
			}
			moves = append(moves, move{ci, int32(bestID)})
		}
		if !ok {
			continue
		}
		for _, mv := range moves {
			planIdx[mv.ci] = mv.to
			cellsOf[int(mv.to)] = append(cellsOf[int(mv.to)], mv.ci)
		}
		delete(kept, victim)
	}
	return planIdx, survivors()
}

// requireMatchesReference fails unless Reduce agrees with referenceReduce
// cell for cell and on the surviving plan set.
func requireMatchesReference(t *testing.T, name string, s *ess.Space, lambda float64) *Diagram {
	t.Helper()
	d := Reduce(s, lambda)
	wantIdx, wantKept := referenceReduce(s, lambda)
	if !slices.Equal(d.kept, wantKept) {
		t.Fatalf("%s: Reduce kept %d plans %v, reference kept %d %v",
			name, len(d.kept), d.kept, len(wantKept), wantKept)
	}
	for ci := range wantIdx {
		if d.planIdx[ci] != wantIdx[ci] {
			t.Fatalf("%s: cell %d assigned P%d, reference P%d", name, ci, d.planIdx[ci], wantIdx[ci])
		}
	}
	return d
}

// benchmarkSpace builds a benchmark query's ESS at its recommended grid,
// the space a benchmark session reduces.
func benchmarkSpace(t testing.TB, name string) *ess.Space {
	t.Helper()
	sp, ok := workload.ByName(name)
	if !ok || sp.Catalog != "tpcds" {
		t.Fatalf("%s: not a TPC-DS benchmark query", name)
	}
	q, err := sp.Build(catalog.TPCDS(100))
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReduceMatchesReferenceOnBenchmarkSpaces(t *testing.T) {
	for _, name := range []string{"2D_Q91", "3D_Q91", "4D_Q91", "5D_Q91", "5D_Q84"} {
		requireMatchesReference(t, name, benchmarkSpace(t, name), 0.2)
	}
}

// TestReduceMatchesReferenceOn6DQ18 covers the benchmark space whose POSP
// holds equal-cost plans, where the tie rule decides cells; it also
// requires a second reduction to reproduce the first.
func TestReduceMatchesReferenceOn6DQ18(t *testing.T) {
	if testing.Short() {
		t.Skip("6D_Q18 reference reduction takes seconds")
	}
	s := benchmarkSpace(t, "6D_Q18")
	d := requireMatchesReference(t, "6D_Q18", s, 0.2)
	again := Reduce(s, 0.2)
	if !slices.Equal(again.planIdx, d.planIdx) || !slices.Equal(again.kept, d.kept) {
		t.Fatal("6D_Q18: two reductions of one space disagree")
	}
}

func TestReduceMatchesReferenceOnRandomQueries(t *testing.T) {
	cat := catalog.TPCDS(1)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 24; trial++ {
		q, err := workload.Random(cat, rng, workload.GenOptions{
			Relations:  2 + rng.Intn(5),
			EPPs:       1 + rng.Intn(4),
			MaxFilters: 2,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		res := []int{0, 16, 10, 6, 4}[q.D()]
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), res, 1e-6), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []float64{0.2, 1} {
			requireMatchesReference(t, workload.Describe(q), s, lambda)
		}
	}
}

// TestReduceBreaksTiesByLowestIndex builds a diagram whose victim can be
// re-homed to either of two identical plans at exactly its optimal cost:
// the lower POSP index must win, on every reduction.
func TestReduceBreaksTiesByLowestIndex(t *testing.T) {
	base := buildSpace(t, 4)
	root := base.PlanAt(0).Root
	twinA, twinB := plan.New(root), plan.New(root)
	victim := base.PlanAt(base.Grid.Size() - 1)
	plans := []*plan.Plan{twinA, twinB, victim}
	g := ess.NewGrid(2, 3, 1e-6)
	m := base.Model
	// Cell 0 belongs to the victim; cells 1-4 and 5-8 to the twins, whose
	// recorded optimum is set too low for either twin to swallow the other.
	planAt := func(ci int) int {
		switch {
		case ci == 0:
			return 2
		case ci <= 4:
			return 0
		}
		return 1
	}
	costAt := func(ci int) float64 {
		c := m.Eval(twinA, g.Location(ci))
		if ci == 0 {
			return c
		}
		return c / 2
	}
	s := ess.FromSurface(m, g, plans, costAt, planAt)
	for i := 0; i < 20; i++ {
		d := requireMatchesReference(t, "tie", s, 0.2)
		if d.PlanIDAt(0) != 0 || !slices.Equal(d.kept, []int{0, 1}) {
			t.Fatalf("reduction %d: cell 0 -> P%d, kept %v; want P0, [0 1]", i, d.PlanIDAt(0), d.kept)
		}
	}
}

// TestReduceBreaksTiesAcrossSwallowOrder is the tie test with the twins
// swallowed out of index order: the lower-index twin owns the larger
// region, so it is the later victim and follows its twin among the plans
// that can take the victim's cell. The cell must still go to the lower
// index.
func TestReduceBreaksTiesAcrossSwallowOrder(t *testing.T) {
	base := buildSpace(t, 4)
	root := base.PlanAt(0).Root
	twinA, twinB := plan.New(root), plan.New(root)
	victim := base.PlanAt(base.Grid.Size() - 1)
	plans := []*plan.Plan{twinA, twinB, victim}
	g := ess.NewGrid(2, 3, 1e-6)
	m := base.Model
	// Cell 0 belongs to the victim, cells 1-5 to P0 and cells 6-8 to P1;
	// the twins' recorded optimum is set too low for either to swallow the
	// other.
	planAt := func(ci int) int {
		switch {
		case ci == 0:
			return 2
		case ci <= 5:
			return 0
		}
		return 1
	}
	costAt := func(ci int) float64 {
		c := m.Eval(twinA, g.Location(ci))
		if ci == 0 {
			return c
		}
		return c / 2
	}
	s := ess.FromSurface(m, g, plans, costAt, planAt)
	d := requireMatchesReferences(t, "tie across swallow order", s, 0.2)
	if d.PlanIDAt(0) != 0 || !slices.Equal(d.kept, []int{0, 1}) {
		t.Fatalf("cell 0 -> P%d, kept %v; want P0, [0 1]", d.PlanIDAt(0), d.kept)
	}
}

// TestReduceRehomesToFailedSurvivor builds a diagram in which the first
// victim, P1, cannot be swallowed, and the second, P2, can be swallowed
// only by moving its cell to P1: a failed survivor before the cell's owner
// in swallow order must be costed at the cell.
func TestReduceRehomesToFailedSurvivor(t *testing.T) {
	base := buildSpace(t, 10)
	g := ess.NewGrid(2, 3, 1e-6)
	m := base.Model
	at := g.Location(1)
	// Pick P1 and P0 with P0 well over (1+λ) times P1's cost at cell 1,
	// and any third plan as P2.
	posp := base.Plans()
	i0, i1, i2 := -1, -1, -1
	for a := range posp {
		for b := range posp {
			if i1 < 0 && m.Eval(posp[b], at) > 1.5*m.Eval(posp[a], at) {
				i1, i0 = a, b
			}
		}
	}
	for c := range posp {
		if i2 < 0 && c != i0 && c != i1 {
			i2 = c
		}
	}
	if i1 < 0 || i2 < 0 {
		t.Fatal("base space lacks three plans with the cost spread needed")
	}
	p0, p1, p2 := posp[i0], posp[i1], posp[i2]
	// P1 owns cell 0, P2 cell 1 and P0 the rest. Only cell 1's recorded
	// optimum leaves room for any plan: P1 there, at exactly its cost.
	planAt := func(ci int) int {
		switch ci {
		case 0:
			return 1
		case 1:
			return 2
		}
		return 0
	}
	costAt := func(ci int) float64 {
		if ci == 1 {
			return m.Eval(p1, at)
		}
		return 1e-9
	}
	s := ess.FromSurface(m, g, []*plan.Plan{p0, p1, p2}, costAt, planAt)
	d := requireMatchesReferences(t, "failed survivor", s, 0.2)
	if d.PlanIDAt(1) != 1 || !slices.Equal(d.kept, []int{0, 1}) {
		t.Fatalf("cell 1 -> P%d, kept %v; want P1, [0 1]", d.PlanIDAt(1), d.kept)
	}
}

// requireMatchesReferences fails unless Reduce, at GOMAXPROCS 1 and 2,
// gives the diagram of both referenceReduce and reduceReference.
func requireMatchesReferences(t *testing.T, name string, s *ess.Space, lambda float64) *Diagram {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := reduceReference(s, lambda)
	var d *Diagram
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		d = requireMatchesReference(t, name, s, lambda)
		if !slices.Equal(d.planIdx, want.planIdx) || !slices.Equal(d.kept, want.kept) {
			t.Fatalf("%s GOMAXPROCS=%d: Reduce kept %v, serial reference %v", name, procs, d.kept, want.kept)
		}
	}
	return d
}

// reduceReference is the serial form of Reduce: one PlanSet costing every
// survivor at every cell, each victim's cells re-homed in cell order,
// stopping at the first that cannot be.
// Unlike referenceReduce it costs plans exactly as Reduce does, so it
// isolates the parallel re-homing: Reduce must give its diagram at any
// GOMAXPROCS.
func reduceReference(s *ess.Space, lambda float64) *Diagram {
	g := s.Grid
	n := g.Size()
	d := &Diagram{Space: s, Lambda: lambda, planIdx: make([]int32, n)}
	// Cells per plan, for area ordering and re-assignment.
	cellsOf := make([][]int, len(s.Plans()))
	for ci := 0; ci < n; ci++ {
		id := s.PlanIDAt(ci)
		d.planIdx[ci] = int32(id)
		cellsOf[id] = append(cellsOf[id], ci)
	}
	for id, cells := range cellsOf {
		if len(cells) > 0 {
			d.kept = append(d.kept, id)
		}
	}
	if lambda <= 0 {
		return d
	}

	order := slices.Clone(d.kept)
	sort.SliceStable(order, func(i, j int) bool {
		return len(cellsOf[order[i]]) < len(cellsOf[order[j]])
	})

	type move struct {
		ci int
		to int32
	}
	var moves []move
	ev := cost.NewPlanSet(s.Model, s.Plans())
	for _, victim := range order {
		if len(d.kept) == 1 {
			break
		}
		// Try to re-home every cell of the victim within threshold.
		moves = moves[:0]
		ok := true
		survivors, _ := ev.Schedule(d.kept)
		for _, ci := range cellsOf[victim] {
			if int(d.planIdx[ci]) != victim {
				continue // already re-homed by an earlier swallow
			}
			ev.Eval(g.Location(ci), survivors)
			limit := s.CostAt(ci) * (1 + lambda)
			bestID, bestCost := -1, limit
			for _, id := range d.kept {
				if id == victim {
					continue
				}
				if c := ev.Cost(id); c <= limit && (bestID < 0 || c < bestCost) {
					bestID, bestCost = id, c
				}
			}
			if bestID < 0 {
				ok = false
				break
			}
			moves = append(moves, move{ci, int32(bestID)})
		}
		if !ok {
			continue
		}
		for _, mv := range moves {
			d.planIdx[mv.ci] = mv.to
			// Track the moved cell under its new owner so a later swallow
			// of that owner re-homes it again instead of stranding it.
			cellsOf[mv.to] = append(cellsOf[mv.to], mv.ci)
		}
		i, _ := slices.BinarySearch(d.kept, victim)
		d.kept = slices.Delete(d.kept, i, i+1)
	}
	return d
}

// TestReduceParallelMatchesSerialReference requires the parallel re-homing
// to give the serial diagram, cell for cell, on the benchmark spaces, with
// one worker and with two.
func TestReduceParallelMatchesSerialReference(t *testing.T) {
	type tc struct {
		query  string
		lambda float64
	}
	cases := []tc{
		{"4D_Q91", 0}, {"4D_Q91", 0.2}, {"4D_Q91", 1},
		{"5D_Q84", 0}, {"5D_Q84", 0.2}, {"5D_Q84", 1},
	}
	if !testing.Short() {
		cases = append(cases, tc{"6D_Q18", 0.2})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spaces := map[string]*ess.Space{}
	for _, c := range cases {
		s := spaces[c.query]
		if s == nil {
			s = benchmarkSpace(t, c.query)
			spaces[c.query] = s
		}
		want := reduceReference(s, c.lambda)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			got := Reduce(s, c.lambda)
			if got.PlanCount() != want.PlanCount() {
				t.Fatalf("%s λ=%g GOMAXPROCS=%d: %d plans, reference %d",
					c.query, c.lambda, procs, got.PlanCount(), want.PlanCount())
			}
			for ci := 0; ci < s.Grid.Size(); ci++ {
				if got.PlanIDAt(ci) != want.PlanIDAt(ci) {
					t.Fatalf("%s λ=%g GOMAXPROCS=%d: cell %d assigned P%d, reference P%d",
						c.query, c.lambda, procs, ci, got.PlanIDAt(ci), want.PlanIDAt(ci))
				}
			}
		}
	}
}
