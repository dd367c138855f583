package plan

import (
	"math/rand"
	"strings"
	"testing"
)

// buildExample constructs the shape of the paper's Fig. 4 discussion:
//
//	HJ[j2]( HJ[j0](Scan0, Scan1), Sort(NL[j1](Scan2, Scan3)) ) — but
//
// simplified here to a three-join tree exercising every operator kind:
//
//	MJ[j2]
//	├─ Sort ─ HJ[j0](Scan0, Scan1)
//	└─ Sort ─ NL[j1](Scan2, Scan3)
func buildExample() *Plan {
	hj := &Node{Kind: HashJoin, Rel: -1, JoinIDs: []int{0},
		Left:  &Node{Kind: SeqScan, Rel: 0},
		Right: &Node{Kind: SeqScan, Rel: 1},
	}
	nl := &Node{Kind: NestLoop, Rel: -1, JoinIDs: []int{1},
		Left:  &Node{Kind: SeqScan, Rel: 2},
		Right: &Node{Kind: SeqScan, Rel: 3},
	}
	mj := &Node{Kind: MergeJoin, Rel: -1, JoinIDs: []int{2},
		Left:  &Node{Kind: Sort, Rel: -1, Left: hj},
		Right: &Node{Kind: Sort, Rel: -1, Left: nl},
	}
	return New(mj)
}

func TestFingerprintIdentity(t *testing.T) {
	a, b := buildExample(), buildExample()
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical trees fingerprint differently: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	// Swapping join inputs must change the fingerprint.
	c := buildExample()
	c.Root.Left.Left.Left, c.Root.Left.Left.Right = c.Root.Left.Left.Right, c.Root.Left.Left.Left
	c = New(c.Root)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("swapped-input tree has same fingerprint")
	}
}

// relations returns the bitmask of relation indices p scans.
func relations(p *Plan) uint64 {
	var mask uint64
	p.Walk(func(n *Node) {
		if n.Kind == SeqScan {
			mask |= 1 << uint(n.Rel)
		}
	})
	return mask
}

func TestRelationsMask(t *testing.T) {
	p := buildExample()
	if got := relations(p); got != 0b1111 {
		t.Errorf("relations = %b, want 1111", got)
	}
}

func TestFindJoinNode(t *testing.T) {
	p := buildExample()
	for id := 0; id < 3; id++ {
		n := p.FindJoinNode(id)
		if n == nil {
			t.Fatalf("FindJoinNode(%d) = nil", id)
		}
		if n.JoinIDs[0] != id {
			t.Errorf("FindJoinNode(%d).JoinIDs = %v", id, n.JoinIDs)
		}
	}
	if p.FindJoinNode(9) != nil {
		t.Error("FindJoinNode(9) should be nil")
	}
}

func TestPipelineDecomposition(t *testing.T) {
	p := buildExample()
	pls := p.Pipelines()
	// Expected pipelines in execution order:
	//  0: Scan1 (HJ build)
	//  1: Scan0, HJ, Sort      (left sort input)
	//  2: Scan3 (NL inner materialization)
	//  3: Scan2, NL, Sort      (right sort input)
	//  4: MJ                   (root)
	if len(pls) != 5 {
		t.Fatalf("pipelines = %d, want 5:\n%s", len(pls), p.Format(nil))
	}
	kindSeq := func(pl Pipeline) string {
		var parts []string
		for _, n := range pl.Nodes {
			parts = append(parts, n.Kind.String())
		}
		return strings.Join(parts, ",")
	}
	want := []string{"Scan", "Scan,HJ,Sort", "Scan", "Scan,NL,Sort", "MJ"}
	for i, w := range want {
		if got := kindSeq(pls[i]); got != w {
			t.Errorf("pipeline %d = %s, want %s", i, got, w)
		}
	}
}

func TestPipelineSimpleHashChain(t *testing.T) {
	// HJ1(probe=HJ0(probe=Scan0, build=Scan1), build=Scan2):
	// builds complete before their probe pipelines stream; the top build
	// (Scan2) materializes first under demand-driven pulls.
	hj0 := &Node{Kind: HashJoin, Rel: -1, JoinIDs: []int{0},
		Left: &Node{Kind: SeqScan, Rel: 0}, Right: &Node{Kind: SeqScan, Rel: 1}}
	hj1 := &Node{Kind: HashJoin, Rel: -1, JoinIDs: []int{1},
		Left: hj0, Right: &Node{Kind: SeqScan, Rel: 2}}
	p := New(hj1)
	pls := p.Pipelines()
	if len(pls) != 3 {
		t.Fatalf("pipelines = %d, want 3", len(pls))
	}
	if pls[0].Nodes[0].Rel != 2 {
		t.Errorf("first pipeline scans rel %d, want 2 (outermost build)", pls[0].Nodes[0].Rel)
	}
	if pls[1].Nodes[0].Rel != 1 {
		t.Errorf("second pipeline scans rel %d, want 1", pls[1].Nodes[0].Rel)
	}
	last := pls[2].Nodes
	if len(last) != 3 || last[0].Rel != 0 || last[1] != hj0 || last[2] != hj1 {
		t.Errorf("root pipeline malformed: %v", last)
	}
}

// EPPOrder is the reference spill order of paper Sec 3.1.3 that
// SpillTarget's scan is checked against: the plan's error-prone predicate
// nodes ordered first by the execution order of their pipelines
// (inter-pipeline rule), then upstream-before-downstream within a pipeline
// (intra-pipeline rule). Only predicates in epps are considered; those
// whose dimension (index in epps) is set in learnt are excluded. The first
// element, if any, is the plan's spill node.
func (p *Plan) EPPOrder(epps []int, learnt int) []EPPNode {
	want := make(map[int]bool, len(epps))
	for d, id := range epps {
		if learnt&(1<<d) == 0 {
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

func TestEPPOrder(t *testing.T) {
	p := buildExample()
	order := p.EPPOrder([]int{0, 1, 2}, 0)
	if len(order) != 3 {
		t.Fatalf("EPPOrder len = %d, want 3", len(order))
	}
	// HJ (j0) streams in pipeline 1, NL (j1) in pipeline 3, MJ (j2) in
	// pipeline 4: inter-pipeline rule orders them j0, j1, j2.
	want := []int{0, 1, 2}
	for i, e := range order {
		if e.JoinID != want[i] {
			t.Errorf("order[%d] = j%d, want j%d", i, e.JoinID, want[i])
		}
	}
}

func TestEPPOrderIntraPipeline(t *testing.T) {
	// Two hash joins in the same probe pipeline: upstream (deeper) first.
	hj0 := &Node{Kind: HashJoin, Rel: -1, JoinIDs: []int{0},
		Left: &Node{Kind: SeqScan, Rel: 0}, Right: &Node{Kind: SeqScan, Rel: 1}}
	hj1 := &Node{Kind: HashJoin, Rel: -1, JoinIDs: []int{1},
		Left: hj0, Right: &Node{Kind: SeqScan, Rel: 2}}
	p := New(hj1)
	order := p.EPPOrder([]int{0, 1}, 0)
	if len(order) != 2 || order[0].JoinID != 0 || order[1].JoinID != 1 {
		t.Fatalf("EPPOrder = %+v, want j0 before j1", order)
	}
	if order[0].Pipeline != order[1].Pipeline {
		t.Errorf("hash joins should share a pipeline: %d vs %d", order[0].Pipeline, order[1].Pipeline)
	}
}

func TestEPPOrderLearnedExcluded(t *testing.T) {
	p := buildExample()
	order := p.EPPOrder([]int{0, 1, 2}, 1)
	if len(order) != 2 || order[0].JoinID != 1 {
		t.Fatalf("EPPOrder with learned j0 = %+v", order)
	}
	// Subset of epps only.
	order = p.EPPOrder([]int{2}, 0)
	if len(order) != 1 || order[0].JoinID != 2 {
		t.Fatalf("EPPOrder([2]) = %+v", order)
	}
}

func TestSpillTarget(t *testing.T) {
	p := buildExample()
	e, dim, ok := p.SpillTarget([]int{1, 2}, 0)
	if !ok || e.JoinID != 1 || dim != 0 {
		t.Errorf("SpillTarget = %+v, dim %d, %v; want j1 on dim 0", e, dim, ok)
	}
	if e, dim, ok := p.SpillTarget([]int{1, 2}, 1); !ok || e.JoinID != 2 || dim != 1 {
		t.Errorf("SpillTarget with j1 learnt = %+v, dim %d, %v; want j2 on dim 1", e, dim, ok)
	}
	if _, _, ok := p.SpillTarget([]int{0}, 1); ok {
		t.Error("SpillTarget with everything learned should report !ok")
	}
}

func TestSubtree(t *testing.T) {
	p := buildExample()
	sub := p.Subtree(0)
	if sub == nil {
		t.Fatal("Subtree(0) = nil")
	}
	if sub.Root.Kind != HashJoin || relations(sub) != 0b0011 {
		t.Errorf("Subtree(0) root=%v rels=%b", sub.Root.Kind, relations(sub))
	}
	if got := len(sub.Pipelines()); got != 2 {
		t.Errorf("subtree pipelines = %d, want 2", got)
	}
	if p.Subtree(42) != nil {
		t.Error("Subtree(42) should be nil")
	}
}

func TestFormat(t *testing.T) {
	p := buildExample()
	out := p.Format([]string{"a", "b", "c", "d"})
	for _, want := range []string{"MJ[j2]", "Scan(a)", "Scan(d)", "Sort"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	// Unnamed relations fall back to rel indices.
	out = p.Format(nil)
	if !strings.Contains(out, "rel0") {
		t.Errorf("Format(nil) should use rel indices:\n%s", out)
	}
}

func TestOpKindString(t *testing.T) {
	kinds := map[OpKind]string{SeqScan: "Scan", HashJoin: "HJ", MergeJoin: "MJ", NestLoop: "NL", Sort: "Sort"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(OpKind(42).String(), "42") {
		t.Error("unknown OpKind should include its value")
	}
}

// TestFingerprintUniquenessOnRandomTrees: structurally different random
// trees must fingerprint differently (collision-freedom in practice).
func TestFingerprintUniquenessOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var build func(depth int, nextRel *int, nextJoin *int) *Node
	build = func(depth int, nextRel *int, nextJoin *int) *Node {
		if depth == 0 || rng.Intn(3) == 0 {
			n := &Node{Kind: SeqScan, Rel: *nextRel}
			*nextRel++
			return n
		}
		kinds := []OpKind{HashJoin, MergeJoin, NestLoop, IndexNestLoop}
		kind := kinds[rng.Intn(len(kinds))]
		var left, right *Node
		if kind == MergeJoin {
			left = &Node{Kind: Sort, Rel: -1, Left: build(depth-1, nextRel, nextJoin)}
			right = &Node{Kind: Sort, Rel: -1, Left: build(depth-1, nextRel, nextJoin)}
		} else {
			left = build(depth-1, nextRel, nextJoin)
			right = &Node{Kind: SeqScan, Rel: *nextRel}
			*nextRel++
			if kind != IndexNestLoop && rng.Intn(2) == 0 {
				right = build(depth-1, nextRel, nextJoin)
			}
		}
		n := &Node{Kind: kind, Rel: -1, JoinIDs: []int{*nextJoin}, Left: left, Right: right}
		*nextJoin++
		return n
	}
	seen := map[string]string{}
	for trial := 0; trial < 300; trial++ {
		rel, join := 0, 0
		p := New(build(3, &rel, &join))
		fp := p.Fingerprint()
		if prev, dup := seen[fp]; dup && prev != p.Format(nil) {
			t.Fatalf("fingerprint collision:\n%s\nvs\n%s", prev, p.Format(nil))
		}
		seen[fp] = p.Format(nil)
	}
	if len(seen) < 50 {
		t.Errorf("generator produced only %d distinct trees", len(seen))
	}
}
