package engine

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

func TestExplainAnnotatesNodes(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-4, 1e-3}
	p, _ := optimalPlanAt(t, m, truth)
	out := ExplainAt(m, p, truth)
	for _, want := range []string{"Scan", "rows=", "cost="} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// The root line carries the full plan cost.
	first := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(first, "cost=") {
		t.Errorf("root line unannotated: %q", first)
	}
	// All three relations appear by alias.
	for _, alias := range []string{"p", "l", "o"} {
		if !strings.Contains(out, " "+alias) && !strings.Contains(out, alias+"\n") && !strings.Contains(out, alias+" ") {
			t.Errorf("Explain missing relation %q:\n%s", alias, out)
		}
	}
}

func TestExplainIndexNestLoop(t *testing.T) {
	m := testModel(t)
	inl := plan.New(&plan.Node{Kind: plan.IndexNestLoop, Rel: -1, JoinIDs: []int{1},
		Left: &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
			Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
			Right: &plan.Node{Kind: plan.SeqScan, Rel: 1}},
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 2},
	})
	out := ExplainAt(m, inl, cost.Location{1e-4, 1e-4})
	if !strings.Contains(out, "Index Nested Loop") {
		t.Errorf("missing INL header:\n%s", out)
	}
	if !strings.Contains(out, "Index probe") {
		t.Errorf("inner side should render as an index probe:\n%s", out)
	}
	if strings.Count(out, "Scan") != 2 {
		t.Errorf("INL inner must not render as a scan:\n%s", out)
	}
}

func TestExplainPipelines(t *testing.T) {
	m := testModel(t)
	o := optimizer.MustNew(m)
	p, _ := o.Optimize(cost.Location{1e-4, 1e-3})
	out := ExplainPipelines(m, p)
	if !strings.Contains(out, "L1:") {
		t.Errorf("missing first pipeline:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != len(p.Pipelines()) {
		t.Errorf("rendered %d pipelines, plan has %d", lines, len(p.Pipelines()))
	}
}
