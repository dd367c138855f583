package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Span taxonomy. Every span kind is derived from one or more telemetry
// event kinds; the mapping is documented per constant. Durations are in
// cost-ledger units for run trees (the budget ledger is the only
// deterministic clock a simulated run has — wall time would break golden
// determinism) and in grid-cell units for session-build trees.
const (
	// KindRun is a run tree's root: one robust processing run.
	KindRun = "run"
	// KindResume is the zero-width run_resume marker: a crash-resumed
	// incarnation picking the trace up at the carried budget ledger.
	KindResume = "run_resume"
	// KindContour covers one iso-cost contour's executions (contour_enter
	// to the next contour_enter).
	KindContour = "contour"
	// KindPlanExec and KindSpillExec are budgeted executions; their width
	// is the charged cost.
	KindPlanExec  = "plan_exec"
	KindSpillExec = "spill_exec"
	// KindBudgetSpend is the engine-level accounting child of an execution.
	KindBudgetSpend = "budget_spend"
	// KindGuard marks a runtime-guard intervention (budget_abort,
	// ess_escape).
	KindGuard = "guard"
	// KindPrune marks a half-space prune (Lemma 3.1).
	KindPrune = "half_space_prune"
	// KindRetry marks a resilience-layer retry attempt.
	KindRetry = "retry"
	// KindDegrade covers the Native-plan fallback execution.
	KindDegrade = "degrade"
	// KindCheckpoint marks a durable run-state snapshot.
	KindCheckpoint = "checkpoint_save"
	// KindBuild is a session-build tree's root; KindBuildChunk covers one
	// worker's contiguous grid range and KindBuildMemo the post-build
	// assembly (diagram reduction + shared optimizer memo).
	KindBuild      = "session_build"
	KindBuildChunk = "build_chunk"
	KindBuildMemo  = "optimizer_memo"
	// KindFailover is the zero-width failover marker: an orphaned durable
	// run resumed by a new owner after its previous owner was marked down.
	KindFailover = "failover"
	// KindPeer marks a fleet heartbeat state transition (peer_down /
	// peer_up); KindFleet is the root of a fleet membership tree, whose
	// clock is the transition ordinal rather than the cost ledger.
	KindPeer  = "peer_state"
	KindFleet = "fleet"
	// KindBrownout is the zero-width marker for a staged-brownout stage
	// transition on a node (see internal/guard.Brownout).
	KindBrownout = "brownout_stage"
)

// Span is one node of a trace tree. Start and End are in the tree's work
// units (cost ledger for runs, grid cells for builds); markers have
// Start == End. Span IDs are deterministic — SpanIDFor over the span's
// structural path — so identical event streams yield byte-identical trees.
type Span struct {
	SpanID   string            `json:"spanId"`
	ParentID string            `json:"parentId,omitempty"`
	Name     string            `json:"name"`
	Kind     string            `json:"kind"`
	Start    float64           `json:"start"`
	End      float64           `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Span           `json:"children,omitempty"`
}

// Tree is one trace's span tree with its identity and span count.
type Tree struct {
	TraceID string `json:"traceId"`
	Kind    string `json:"kind"` // KindRun or KindBuild
	Spans   int    `json:"spans"`
	Root    *Span  `json:"root"`
}

// JSON renders the tree as deterministic indented JSON: struct fields in
// declaration order, attr maps in sorted key order (encoding/json), floats
// in shortest round-trip form.
func (t *Tree) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// num formats a work-unit value the way the JSON encoder would.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// FromRun derives a run's span tree from its telemetry event stream. The
// derivation is a pure function of (traceID, events): the cost ledger is
// the clock — each execution advances it by its charged cost — so the tree
// is byte-identical across repeated runs, serial/parallel-built sessions
// and crash-resume replays of the same stream. A resumed incarnation's
// tree starts at the carried ledger base (the [0, base) prefix is the
// crashed incarnations' spend), marked by a run_resume span.
func FromRun(traceID string, events []telemetry.Event) *Tree {
	root := &Span{Kind: KindRun, Name: "run", Attrs: map[string]string{}}
	clock := 0.0
	var contour *Span             // open contour span, nil outside contours
	var pending []telemetry.Event // budget_spend events awaiting their execution
	scope := func() *Span {
		if contour != nil {
			return contour
		}
		return root
	}
	closeContour := func() {
		if contour != nil {
			contour.End = clock
			contour = nil
		}
	}
	// flushPending turns budget_spend events that never met an execution
	// span (aborted steps) into zero-width markers at the current clock.
	flushPending := func(into *Span) {
		for _, ev := range pending {
			into.Children = append(into.Children, &Span{
				Kind: KindBudgetSpend, Name: "budget_spend:" + ev.Mode,
				Start: clock, End: clock,
				Attrs: map[string]string{"budget": num(ev.Budget), "spent": num(ev.Spent)},
			})
		}
		pending = nil
	}
	marker := func(kind, name string, attrs map[string]string) *Span {
		sp := &Span{Kind: kind, Name: name, Start: clock, End: clock, Attrs: attrs}
		scope().Children = append(scope().Children, sp)
		return sp
	}

	for _, ev := range events {
		switch ev.Kind {
		case telemetry.RunResume:
			clock = ev.Spent
			root.Start = clock // markers below stay in range; reset at seal
			marker(KindResume, "run_resume", map[string]string{
				"runId": ev.Detail, "contour": strconv.Itoa(ev.Contour), "ledger": num(ev.Spent),
			})
			root.Attrs["resumed"] = "true"
		case telemetry.ContourEnter:
			flushPending(scope())
			closeContour()
			contour = &Span{
				Kind: KindContour, Name: "contour:" + strconv.Itoa(ev.Contour),
				Start: clock, End: clock,
				Attrs: map[string]string{"contour": strconv.Itoa(ev.Contour)},
			}
			root.Children = append(root.Children, contour)
		case telemetry.PlanExec, telemetry.SpillExec:
			kind := KindPlanExec
			if ev.Kind == telemetry.SpillExec {
				kind = KindSpillExec
			}
			attrs := map[string]string{
				"planId":    strconv.Itoa(ev.PlanID),
				"completed": strconv.FormatBool(ev.Completed),
			}
			if ev.Budget != 0 {
				attrs["budget"] = num(ev.Budget)
			}
			if ev.Dim >= 0 {
				attrs["dim"] = strconv.Itoa(ev.Dim)
			}
			if ev.Learned != 0 {
				attrs["learned"] = num(ev.Learned)
			}
			if ev.Mode != "" {
				attrs["mode"] = ev.Mode
			}
			if ev.Repeat {
				attrs["repeat"] = "true"
			}
			if ev.Penalty != 0 {
				attrs["penalty"] = num(ev.Penalty)
			}
			sp := &Span{
				Kind: kind, Name: fmt.Sprintf("%s:p%d", kind, ev.PlanID),
				Start: clock, End: clock + ev.Spent, Attrs: attrs,
			}
			// The engine's budget_spend accounting precedes its execution
			// event in the stream; it becomes the execution span's child,
			// sharing its extent.
			for _, pe := range pending {
				sp.Children = append(sp.Children, &Span{
					Kind: KindBudgetSpend, Name: "budget_spend:" + pe.Mode,
					Start: sp.Start, End: sp.End,
					Attrs: map[string]string{"budget": num(pe.Budget), "spent": num(pe.Spent)},
				})
			}
			pending = nil
			scope().Children = append(scope().Children, sp)
			clock = sp.End
		case telemetry.BudgetSpend:
			pending = append(pending, ev)
		case telemetry.BudgetAbort:
			flushPending(scope())
			marker(KindGuard, "guard:budget_abort", map[string]string{
				"verdict": "budget_abort", "budget": num(ev.Budget), "spent": num(ev.Spent),
			})
		case telemetry.ESSEscape:
			flushPending(scope())
			attrs := map[string]string{"verdict": "ess_escape"}
			if ev.Dim >= 0 {
				attrs["dim"] = strconv.Itoa(ev.Dim)
			}
			if ev.Learned != 0 {
				attrs["learned"] = num(ev.Learned)
			}
			marker(KindGuard, "guard:ess_escape", attrs)
		case telemetry.HalfSpacePrune:
			attrs := map[string]string{"dim": strconv.Itoa(ev.Dim)}
			if ev.Learned != 0 {
				attrs["learned"] = num(ev.Learned)
			}
			marker(KindPrune, fmt.Sprintf("half_space_prune:dim%d", ev.Dim), attrs)
		case telemetry.Retry:
			attrs := map[string]string{}
			if ev.Detail != "" {
				attrs["detail"] = ev.Detail
			}
			if ev.Final {
				attrs["final"] = "true"
			}
			marker(KindRetry, "retry", attrs)
		case telemetry.Degrade:
			flushPending(scope())
			closeContour()
			attrs := map[string]string{"cause": ev.Detail}
			sp := &Span{
				Kind: KindDegrade, Name: "degrade:native",
				Start: clock, End: clock + ev.Spent, Attrs: attrs,
			}
			root.Children = append(root.Children, sp)
			clock = sp.End
		case telemetry.CheckpointSave:
			marker(KindCheckpoint, "checkpoint_save", map[string]string{
				"runId": ev.Detail, "contour": strconv.Itoa(ev.Contour), "ledger": num(ev.Spent),
			})
		case telemetry.Failover:
			// A failover marker sits at the resume ledger: the previous
			// owner died (or was partitioned away) and this incarnation's
			// node adopted the run.
			attrs := map[string]string{"runId": ev.Detail, "ledger": num(ev.Spent)}
			if ev.Mode != "" {
				attrs["node"] = ev.Mode
			}
			marker(KindFailover, "failover", attrs)
		case telemetry.PeerDown, telemetry.PeerUp:
			marker(KindPeer, string(ev.Kind), map[string]string{"peer": ev.Detail})
		case telemetry.Done:
			flushPending(scope())
			closeContour()
			if ev.Algorithm != "" {
				root.Name = "run:" + ev.Algorithm
				root.Attrs["algorithm"] = ev.Algorithm
			}
			root.Attrs["totalCost"] = num(ev.TotalCost)
			root.Attrs["subOpt"] = num(ev.SubOpt)
			root.Attrs["completed"] = strconv.FormatBool(ev.Completed)
		}
	}
	flushPending(scope())
	closeContour()
	// A resumed tree spans the whole run: the root starts at 0 (the crashed
	// incarnations' ledger is [0, resume base)) and ends at the final clock.
	root.Start = 0
	root.End = clock
	t := &Tree{TraceID: traceID, Kind: KindRun, Root: root}
	seal(t)
	return t
}

// FromBuild derives a session-build span tree from the build's telemetry
// events: one build_chunk span per worker grid range (the clock is the flat
// cell index), an optimizer_memo marker for the post-build assembly, under a
// session_build root. Chunk events arrive in nondeterministic worker order;
// they are normalized by sorting on the chunk's first cell, so the tree
// depends only on the partition, never on scheduling.
func FromBuild(traceID string, events []telemetry.Event) *Tree {
	root := &Span{Kind: KindBuild, Name: "session_build", Attrs: map[string]string{}}
	var chunks []*Span
	total := 0.0
	memo := false
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.BuildChunk:
			chunks = append(chunks, &Span{
				Kind:  KindBuildChunk,
				Name:  fmt.Sprintf("build_chunk:%d-%d", ev.CellLo, ev.CellHi),
				Start: float64(ev.CellLo), End: float64(ev.CellHi),
				Attrs: map[string]string{"cells": strconv.Itoa(ev.CellHi - ev.CellLo)},
			})
			if float64(ev.CellHi) > total {
				total = float64(ev.CellHi)
			}
		case telemetry.BuildMemo:
			memo = true
		}
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Start < chunks[j].Start })
	root.Children = chunks
	root.End = total
	root.Attrs["cells"] = num(total)
	root.Attrs["chunks"] = strconv.Itoa(len(chunks))
	if memo {
		root.Children = append(root.Children, &Span{
			Kind: KindBuildMemo, Name: "optimizer_memo", Start: total, End: total,
		})
	}
	t := &Tree{TraceID: traceID, Kind: KindBuild, Root: root}
	seal(t)
	return t
}

// FromFleet derives a fleet-membership span tree from a node's heartbeat
// event stream (peer_down / peer_up transitions and failover adoptions).
// The clock is the transition ordinal — membership changes have no cost
// ledger — so every transition is a zero-width marker at its sequence
// position, and the flamegraph of a fleet trace reads as a membership
// timeline. Pure function of (traceID, events), like FromRun.
func FromFleet(traceID string, events []telemetry.Event) *Tree {
	root := &Span{Kind: KindFleet, Name: "fleet", Attrs: map[string]string{}}
	clock := 0.0
	transitions, failovers, brownouts := 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.PeerDown, telemetry.PeerUp:
			transitions++
			root.Children = append(root.Children, &Span{
				Kind: KindPeer, Name: string(ev.Kind) + ":" + ev.Detail,
				Start: clock, End: clock,
				Attrs: map[string]string{"peer": ev.Detail},
			})
			clock++
		case telemetry.Failover:
			failovers++
			attrs := map[string]string{"runId": ev.Detail, "ledger": num(ev.Spent)}
			if ev.Mode != "" {
				attrs["node"] = ev.Mode
			}
			root.Children = append(root.Children, &Span{
				Kind: KindFailover, Name: "failover:" + ev.Detail,
				Start: clock, End: clock, Attrs: attrs,
			})
			clock++
		case telemetry.BrownoutStage:
			brownouts++
			attrs := map[string]string{
				"stage": strconv.Itoa(ev.Contour),
				"from":  strconv.Itoa(ev.Dim),
			}
			if ev.Detail != "" {
				attrs["node"] = ev.Detail
			}
			root.Children = append(root.Children, &Span{
				Kind: KindBrownout, Name: "brownout_stage:" + strconv.Itoa(ev.Contour),
				Start: clock, End: clock, Attrs: attrs,
			})
			clock++
		}
	}
	root.End = clock
	root.Attrs["transitions"] = strconv.Itoa(transitions)
	root.Attrs["failovers"] = strconv.Itoa(failovers)
	if brownouts > 0 {
		root.Attrs["brownouts"] = strconv.Itoa(brownouts)
	}
	t := &Tree{TraceID: traceID, Kind: KindFleet, Root: root}
	seal(t)
	return t
}

// Derive builds the span tree of kind (KindRun or KindBuild) from a
// telemetry event stream: FromRun or FromBuild.
func Derive(kind, traceID string, events []telemetry.Event) *Tree {
	switch kind {
	case KindRun:
		return FromRun(traceID, events)
	case KindBuild:
		return FromBuild(traceID, events)
	}
	panic("trace: no derivation for tree kind " + kind)
}

// SpanCount returns Derive(kind, traceID, events).Spans without building the
// tree: the root plus one span per event of the kinds the derivation renders.
// A run's budget_spend is one span whether it attaches to its execution or
// stands as an aborted step's marker; a build's optimizer_memo span appears
// once however many build_memo events there are.
func SpanCount(kind string, events []telemetry.Event) int {
	n := 1
	switch kind {
	case KindRun:
		for _, ev := range events {
			switch ev.Kind {
			case telemetry.RunResume, telemetry.ContourEnter, telemetry.PlanExec, telemetry.SpillExec,
				telemetry.BudgetSpend, telemetry.BudgetAbort, telemetry.ESSEscape, telemetry.HalfSpacePrune,
				telemetry.Retry, telemetry.Degrade, telemetry.CheckpointSave, telemetry.Failover,
				telemetry.PeerDown, telemetry.PeerUp:
				n++
			}
		}
	case KindBuild:
		memo := 0
		for _, ev := range events {
			switch ev.Kind {
			case telemetry.BuildChunk:
				n++
			case telemetry.BuildMemo:
				memo = 1
			}
		}
		n += memo
	default:
		panic("trace: no derivation for tree kind " + kind)
	}
	return n
}

// seal assigns deterministic span and parent IDs over the finished tree
// (SpanIDFor over each span's structural path) and counts the spans. It
// runs after any normalization sorting, so concurrent emission order can
// never leak into the IDs.
func seal(t *Tree) {
	n := 0
	var walk func(sp *Span, parentID, path string)
	walk = func(sp *Span, parentID, path string) {
		n++
		sp.SpanID = SpanIDFor(t.TraceID, path)
		sp.ParentID = parentID
		for i, c := range sp.Children {
			walk(c, sp.SpanID, path+"."+strconv.Itoa(i))
		}
	}
	walk(t.Root, "", "0")
	t.Spans = n
}

// RenderText renders the tree as an indented one-span-per-line transcript
// for CLI output (`rqp -trace`).
func RenderText(t *Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d spans (%s)\n", t.TraceID, t.Spans, t.Kind)
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if sp.Start == sp.End {
			fmt.Fprintf(&b, "- %s @%s", sp.Name, num(sp.Start))
		} else {
			fmt.Fprintf(&b, "- %s [%s, %s] width=%s", sp.Name, num(sp.Start), num(sp.End), num(sp.End-sp.Start))
		}
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, sp.Attrs[k])
		}
		b.WriteByte('\n')
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}
