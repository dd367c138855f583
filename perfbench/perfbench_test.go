package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

func takeRequests(seed int64, stream string, hot [][]float64) [][]runReq {
	var out [][]runReq
	for client := 0; client < 2; client++ {
		g := newGen(seed, stream, client, hot)
		var seq []runReq
		for i := 0; i < 200; i++ {
			seq = append(seq, g.next())
		}
		out = append(out, seq)
	}
	return out
}

func TestRequestSequenceFollowsSeed(t *testing.T) {
	if !reflect.DeepEqual(takeRequests(7, "serve", nil), takeRequests(7, "serve", nil)) {
		t.Fatal("serve: one seed gave two request sequences")
	}
	if reflect.DeepEqual(takeRequests(7, "serve", nil), takeRequests(8, "serve", nil)) {
		t.Fatal("serve: two seeds gave the same request sequence")
	}
	if !reflect.DeepEqual(hotSet(7), hotSet(7)) || reflect.DeepEqual(hotSet(7), hotSet(8)) {
		t.Fatal("durable: the hot set does not follow the seed")
	}
	if !reflect.DeepEqual(takeRequests(7, "durable", hotSet(7)), takeRequests(7, "durable", hotSet(7))) {
		t.Fatal("durable: one seed gave two request sequences")
	}
	if reflect.DeepEqual(takeRequests(7, "durable", hotSet(7)), takeRequests(8, "durable", hotSet(8))) {
		t.Fatal("durable: two seeds gave the same request sequence")
	}
	if sampleSeed(7) == sampleSeed(8) {
		t.Fatal("offline: two seeds gave the same location sample")
	}
	mix := map[string]int{}
	for _, seq := range takeRequests(3, "serve", nil) {
		for _, r := range seq {
			mix[r.Strategy]++
			for _, v := range r.Truth {
				if v < 1e-6 || v > 1 {
					t.Fatalf("truth %v outside [1e-6, 1]", r.Truth)
				}
			}
		}
	}
	if len(mix) != len(strategyMix) {
		t.Fatalf("strategy mix %v misses a strategy", mix)
	}
}

// TestTracedCountsRepeat runs small traced ladders twice on one seed: the
// exact counts they report must repeat, and every output check must pass.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sessions and boots servers")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	exact := []string{
		"ess.posp_plans", "spillbound.execs_per_loc", "bouquet.execs_per_loc", "aligned.execs_per_loc",
		"telemetry.events_per_run", "runstate.checkpoints_per_run", "optimizer.repeat_ratio",
	}
	counts := func() map[string]float64 {
		b := &bench{root: t.TempDir(), work: t.TempDir(), seed: 5, seconds: 1, trace: true}
		out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
		tr := newTracer()
		if _, err := offlineLadder(b, out, tr, exp, sweptQueries[:1], sweptQueries[:1], 16); err != nil {
			t.Fatal(err)
		}
		if _, err := serveLadder(b, out, tr, 12, "test"); err != nil {
			t.Fatal(err)
		}
		if _, err := durableLadder(b, out, tr, 12, "test"); err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Fatalf("%d failed checks: %v", b.failed, b.problems)
		}
		for name := range layerUnits {
			if _, ok := out.layer[name]; !ok {
				t.Errorf("per-layer metric %s not measured", name)
			}
		}
		got := map[string]float64{}
		for _, name := range exact {
			got[name] = out.layer[name]
		}
		return got
	}
	first, second := counts(), counts()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("exact counts moved between two runs of one seed:\n%v\n%v", first, second)
	}
	if first["optimizer.repeat_ratio"] != 0 {
		t.Errorf("serve ladder repeated a truth: repeat ratio %v", first["optimizer.repeat_ratio"])
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{doc.EndToEnd, e2eUnits}, {doc.PerLayer, layerUnits}} {
		if len(set.listed) != len(set.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(set.listed), len(set.units))
		}
		for _, m := range set.listed {
			if set.units[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, set.units[m.Name])
			}
		}
	}
}

func TestExpectedCoversEverySample(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range offlineQueries {
		if exp.POSP[q] == 0 {
			t.Errorf("no POSP size recorded for %s", q)
		}
	}
	for s := int64(1); s <= sampleSeeds; s++ {
		m := exp.Sweeps[fmt.Sprint(s)]
		if len(m) != len(sweptQueries)*len(sweptAlgos) {
			t.Errorf("sample seed %d: %d recorded sweeps", s, len(m))
		}
	}
}
