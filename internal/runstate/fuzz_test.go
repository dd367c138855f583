package runstate

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeRunState throws arbitrary bytes at the snapshot decoder — the
// exact code path crash recovery runs against on-disk files it did not
// necessarily write (torn by a pre-atomic-write crash, version-skewed, or
// corrupted). The decoder must never panic, must reject version skew, and an
// accepted snapshot must survive a re-encode/decode round trip.
func FuzzDecodeRunState(f *testing.F) {
	valid, err := json.Marshal(RunState{
		SchemaVersion: Version, RunID: "r1", Algorithm: "spillbound",
		Truth: []float64{0.02, 0.3}, Seed: 7,
		Discovery: Discovery{
			Contour: 2, Spent: 12.5,
			Learned: map[int]float64{0: 0.3},
			Bounds:  map[int]float64{1: 0.01},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	terminal, err := json.Marshal(RunState{
		SchemaVersion: Version, RunID: "r3", Algorithm: "planbouquet",
		Truth: []float64{0.04, 0.1}, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		Completed: true, Resumed: true,
		Summary:   Summary{TotalCost: 30.5, OptimalCost: 7.25, SubOpt: 4.2068965517241379, Degraded: true},
		Discovery: Discovery{Contour: 5, Spent: 30.5, Executions: 9, Events: 40, Learned: map[int]float64{0: 0.04}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":99,"runId":"r2"}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"truth":[1e999]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add(terminal)

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := Decode(data)
		if err != nil {
			if rs != nil {
				t.Fatalf("Decode returned both a state and an error: %v", err)
			}
			return
		}
		if rs == nil {
			t.Fatal("Decode returned nil state without error")
		}
		if rs.SchemaVersion != Version {
			t.Fatalf("accepted snapshot with version %d", rs.SchemaVersion)
		}
		out, err := json.Marshal(rs)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if _, err := Decode(out); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
	})
}
