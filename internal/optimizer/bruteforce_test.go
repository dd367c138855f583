package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
)

// enumerateAll exhaustively generates every plan tree over the relation set
// (bitmask), mirroring the DP's alternative space: all binary partitions,
// all physical operators, index-nested-loops only onto base relations, and
// merge joins with sorted inputs. Used as a brute-force optimality oracle.
func enumerateAll(o *Optimizer, set int) []*plan.Node {
	if set&(set-1) == 0 { // singleton
		rel := 0
		for set>>uint(rel)&1 == 0 {
			rel++
		}
		return []*plan.Node{{Kind: plan.SeqScan, Rel: rel}}
	}
	var out []*plan.Node
	for s1 := (set - 1) & set; s1 > 0; s1 = (s1 - 1) & set {
		s2 := set &^ s1
		var cross []int
		for _, j := range o.q.Joins {
			if o.internalMask[set]&(1<<uint(j.ID)) == 0 {
				continue
			}
			if (s1&(1<<uint(j.LeftRel)) != 0) != (s1&(1<<uint(j.RightRel)) != 0) {
				cross = append(cross, j.ID)
			}
		}
		if len(cross) == 0 {
			continue
		}
		lefts := enumerateAll(o, s1)
		rights := enumerateAll(o, s2)
		for _, l := range lefts {
			for _, r := range rights {
				out = append(out,
					&plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: cross, Left: l, Right: r},
					&plan.Node{Kind: plan.NestLoop, Rel: -1, JoinIDs: cross, Left: l, Right: r},
					&plan.Node{Kind: plan.MergeJoin, Rel: -1, JoinIDs: cross,
						Left:  &plan.Node{Kind: plan.Sort, Rel: -1, Left: l},
						Right: &plan.Node{Kind: plan.Sort, Rel: -1, Left: r}},
				)
				if s2&(s2-1) == 0 {
					out = append(out, &plan.Node{Kind: plan.IndexNestLoop, Rel: -1, JoinIDs: cross, Left: l, Right: r})
				}
			}
		}
	}
	return out
}

// TestDPMatchesBruteForce proves the DP optimizer exact over its own
// alternative space: at random ESS locations, Optimize's cost equals the
// minimum over the exhaustively enumerated plan set.
func TestDPMatchesBruteForce(t *testing.T) {
	o := exampleOptimizer(t)
	m := o.Model()
	full := (1 << uint(o.n)) - 1
	// The enumeration reuses the DP's internalMask table, which is
	// location-independent.
	all := enumerateAll(o, full)
	if len(all) < 20 {
		t.Fatalf("enumeration produced only %d plans", len(all))
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		at := cost.Location{
			math.Pow(10, -7*rng.Float64()),
			math.Pow(10, -7*rng.Float64()),
		}
		_, dpCost := o.Optimize(at)
		best := math.Inf(1)
		for _, root := range all {
			if c := m.Eval(plan.New(root), at); c < best {
				best = c
			}
		}
		if math.Abs(dpCost-best)/best > 1e-9 {
			t.Fatalf("at %v: DP %g != brute force %g", at, dpCost, best)
		}
	}
}
