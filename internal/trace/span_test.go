package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

const testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// runEvents is a compact synthetic run: two contours, a budgeted execution
// with its engine accounting, a spill execution, a prune, a guard verdict,
// and the terminal summary.
func runEvents() []telemetry.Event {
	return []telemetry.Event{
		{Kind: telemetry.ContourEnter, Contour: 0, Dim: -1},
		{Kind: telemetry.BudgetSpend, Mode: "exec", Budget: 10, Spent: 10, Dim: -1},
		{Kind: telemetry.PlanExec, PlanID: 3, Budget: 10, Spent: 10, Dim: -1},
		{Kind: telemetry.HalfSpacePrune, Dim: 1, Learned: 0.25},
		{Kind: telemetry.ContourEnter, Contour: 1, Dim: -1},
		{Kind: telemetry.SpillExec, PlanID: 5, Budget: 20, Spent: 20, Dim: 0, Completed: true},
		{Kind: telemetry.BudgetAbort, Budget: 40, Spent: 41, Dim: -1},
		{Kind: telemetry.Done, Algorithm: "spillbound", TotalCost: 30, SubOpt: 1.5, Completed: true, Dim: -1},
	}
}

func TestFromRunShape(t *testing.T) {
	tree := FromRun(testTraceID, runEvents())
	root := tree.Root
	if root.Kind != KindRun || root.Name != "run:spillbound" {
		t.Fatalf("root %q kind %q", root.Name, root.Kind)
	}
	if root.Start != 0 || root.End != 30 {
		t.Fatalf("root extent [%g, %g], want [0, 30] (the cost-ledger clock)", root.Start, root.End)
	}
	if root.Attrs["totalCost"] != "30" || root.Attrs["subOpt"] != "1.5" || root.Attrs["completed"] != "true" {
		t.Errorf("root attrs %v", root.Attrs)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2 contours", len(root.Children))
	}
	c0, c1 := root.Children[0], root.Children[1]
	if c0.Kind != KindContour || c0.Start != 0 || c0.End != 10 {
		t.Errorf("contour 0: kind %q [%g, %g]", c0.Kind, c0.Start, c0.End)
	}
	if c1.Start != 10 || c1.End != 30 {
		t.Errorf("contour 1 extent [%g, %g], want [10, 30]", c1.Start, c1.End)
	}
	// Contour 0: the plan_exec (with its budget_spend child) then the prune
	// marker at the post-exec clock.
	if len(c0.Children) != 2 {
		t.Fatalf("contour 0 has %d children", len(c0.Children))
	}
	exec := c0.Children[0]
	if exec.Kind != KindPlanExec || exec.Start != 0 || exec.End != 10 {
		t.Errorf("exec span %q [%g, %g]", exec.Kind, exec.Start, exec.End)
	}
	if len(exec.Children) != 1 || exec.Children[0].Kind != KindBudgetSpend {
		t.Errorf("budget_spend not attached to its execution: %+v", exec.Children)
	}
	if prune := c0.Children[1]; prune.Kind != KindPrune || prune.Start != 10 || prune.End != 10 {
		t.Errorf("prune marker %q [%g, %g]", prune.Kind, prune.Start, prune.End)
	}
	// Contour 1: the spill exec and the guard marker.
	if len(c1.Children) != 2 || c1.Children[0].Kind != KindSpillExec || c1.Children[1].Kind != KindGuard {
		t.Errorf("contour 1 children: %+v", c1.Children)
	}
	if tree.Spans != 8 {
		t.Errorf("tree advertises %d spans", tree.Spans)
	}
}

func TestFromRunDeterministicJSON(t *testing.T) {
	a, err := FromRun(testTraceID, runEvents()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRun(testTraceID, runEvents()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same (traceID, events) produced different JSON")
	}
	c, err := FromRun(strings.Repeat("ab", 16), runEvents()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("different trace IDs produced identical JSON (span IDs must differ)")
	}
}

func TestFromRunResume(t *testing.T) {
	// A resumed incarnation: the stream opens with run_resume carrying the
	// ledger base; the tree must start its clock there but the root must
	// still span [0, end] — the prefix is the crashed incarnations' spend.
	events := append([]telemetry.Event{
		{Kind: telemetry.RunResume, Detail: "r7", Contour: 1, Spent: 100, Dim: -1},
	}, []telemetry.Event{
		{Kind: telemetry.ContourEnter, Contour: 1, Dim: -1},
		{Kind: telemetry.PlanExec, PlanID: 2, Spent: 15, Dim: -1, Completed: true},
		{Kind: telemetry.Done, Algorithm: "spillbound", TotalCost: 115, SubOpt: 2, Completed: true, Dim: -1},
	}...)
	tree := FromRun(testTraceID, events)
	root := tree.Root
	if root.Attrs["resumed"] != "true" {
		t.Error("resumed run not marked on the root")
	}
	if root.Start != 0 || root.End != 115 {
		t.Errorf("root extent [%g, %g], want [0, 115]", root.Start, root.End)
	}
	if len(root.Children) < 2 || root.Children[0].Kind != KindResume {
		t.Fatalf("first child %+v, want the run_resume marker", root.Children[0])
	}
	resume := root.Children[0]
	if resume.Start != 100 || resume.End != 100 || resume.Attrs["ledger"] != "100" {
		t.Errorf("resume marker [%g, %g] attrs %v", resume.Start, resume.End, resume.Attrs)
	}
	contour := root.Children[1]
	if contour.Start != 100 || contour.End != 115 {
		t.Errorf("resumed contour [%g, %g], want [100, 115]", contour.Start, contour.End)
	}
}

func TestFromRunDegradedAndAbortedSpend(t *testing.T) {
	// A budget_spend with no following execution (the step was aborted)
	// flushes as a zero-width marker; the degrade execution closes the
	// contour and lands under the root.
	events := []telemetry.Event{
		{Kind: telemetry.ContourEnter, Contour: 0, Dim: -1},
		{Kind: telemetry.BudgetSpend, Mode: "exec", Budget: 10, Spent: 10, Dim: -1},
		{Kind: telemetry.Degrade, Detail: "watchdog", Spent: 50, Dim: -1},
		{Kind: telemetry.Done, Algorithm: "spillbound", TotalCost: 50, SubOpt: 9, Dim: -1},
	}
	tree := FromRun(testTraceID, events)
	root := tree.Root
	if len(root.Children) != 2 {
		t.Fatalf("root children %d, want contour + degrade", len(root.Children))
	}
	contour := root.Children[0]
	if len(contour.Children) != 1 || contour.Children[0].Kind != KindBudgetSpend {
		t.Fatalf("aborted budget_spend not flushed into its contour: %+v", contour.Children)
	}
	if sp := contour.Children[0]; sp.Start != sp.End {
		t.Errorf("flushed spend should be a zero-width marker, got [%g, %g]", sp.Start, sp.End)
	}
	deg := root.Children[1]
	if deg.Kind != KindDegrade || deg.Start != 0 || deg.End != 50 {
		t.Errorf("degrade span %q [%g, %g]", deg.Kind, deg.Start, deg.End)
	}
}

func TestFromBuildNormalizesChunkOrder(t *testing.T) {
	// Chunk events in scrambled worker-completion order must yield the same
	// tree as sorted order: FromBuild sorts on the chunk's first cell before
	// sealing IDs.
	scrambled := []telemetry.Event{
		{Kind: telemetry.BuildChunk, CellLo: 32, CellHi: 64, Dim: -1},
		{Kind: telemetry.BuildChunk, CellLo: 0, CellHi: 32, Dim: -1},
		{Kind: telemetry.BuildMemo, Dim: -1},
	}
	ordered := []telemetry.Event{
		{Kind: telemetry.BuildChunk, CellLo: 0, CellHi: 32, Dim: -1},
		{Kind: telemetry.BuildChunk, CellLo: 32, CellHi: 64, Dim: -1},
		{Kind: telemetry.BuildMemo, Dim: -1},
	}
	a, err := FromBuild(testTraceID, scrambled).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromBuild(testTraceID, ordered).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("chunk emission order leaked into the build tree")
	}
	tree := FromBuild(testTraceID, ordered)
	if tree.Root.End != 64 || tree.Root.Attrs["chunks"] != "2" {
		t.Errorf("build root end %g attrs %v", tree.Root.End, tree.Root.Attrs)
	}
	last := tree.Root.Children[len(tree.Root.Children)-1]
	if last.Kind != KindBuildMemo || last.Start != 64 {
		t.Errorf("memo marker %+v", last)
	}
	if tree.Spans != 4 {
		t.Errorf("spans = %d, want 4", tree.Spans)
	}
}

func TestSealIDsAndRenderText(t *testing.T) {
	tree := FromRun(testTraceID, runEvents())
	seen := map[string]bool{}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		if sp.SpanID == "" || seen[sp.SpanID] {
			t.Fatalf("span ID %q empty or duplicated", sp.SpanID)
		}
		seen[sp.SpanID] = true
		for _, c := range sp.Children {
			if c.ParentID != sp.SpanID {
				t.Fatalf("child %s names parent %q under %s", c.SpanID, c.ParentID, sp.SpanID)
			}
			walk(c)
		}
	}
	if tree.Root.ParentID != "" {
		t.Fatalf("root has a parent")
	}
	walk(tree.Root)

	text := RenderText(tree)
	if !strings.Contains(text, "run:spillbound") || !strings.Contains(text, "contour:1") {
		t.Errorf("render missing spans:\n%s", text)
	}
	if RenderText(tree) != text {
		t.Error("RenderText is not deterministic")
	}
}

// TestSpanCountMatchesDerivedTree pins SpanCount to the Spans of the tree
// Derive builds, for run and build trees, over random streams drawn from
// every event kind: stray budget_spend events, repeated build_memo events
// and kinds a derivation ignores included.
func TestSpanCountMatchesDerivedTree(t *testing.T) {
	kinds := []telemetry.Kind{
		telemetry.ContourEnter, telemetry.PlanExec, telemetry.SpillExec, telemetry.HalfSpacePrune,
		telemetry.BudgetSpend, telemetry.BudgetAbort, telemetry.ESSEscape, telemetry.Retry,
		telemetry.Degrade, telemetry.CheckpointSave, telemetry.RunResume, telemetry.Done,
		telemetry.BuildChunk, telemetry.BuildMemo, telemetry.PeerDown, telemetry.PeerUp,
		telemetry.Failover, telemetry.BrownoutStage,
	}
	rng := rand.New(rand.NewSource(3))
	streams := [][]telemetry.Event{nil, runEvents()}
	for i := 0; i < 200; i++ {
		ev := make([]telemetry.Event, rng.Intn(40))
		for j := range ev {
			lo := rng.Intn(100)
			ev[j] = telemetry.Event{
				Kind: kinds[rng.Intn(len(kinds))], Dim: rng.Intn(3) - 1, Spent: float64(rng.Intn(5)),
				CellLo: lo, CellHi: lo + 1 + rng.Intn(8),
			}
		}
		streams = append(streams, ev)
	}
	for i, ev := range streams {
		for _, kind := range []string{KindRun, KindBuild} {
			tree := Derive(kind, testTraceID, ev)
			if tree.Kind != kind {
				t.Fatalf("Derive(%s) built a %s tree", kind, tree.Kind)
			}
			if got := SpanCount(kind, ev); got != tree.Spans {
				t.Fatalf("stream %d, %s: SpanCount %d, tree has %d spans", i, kind, got, tree.Spans)
			}
		}
	}
}
