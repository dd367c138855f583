package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// customSQL is the 3D_Q15 join, run through -sql with auto-identified epps.
const customSQL = `SELECT * FROM catalog_sales cs, customer c, customer_address ca, date_dim d WHERE cs.cs_bill_customer_sk = c.c_customer_sk AND c.c_current_addr_sk = ca.ca_address_sk AND cs.cs_sold_date_sk = d.d_date_sk AND d.d_qoy = 1 AND d.d_year = 2001`

// TestGoldenOutputs runs the command in-process against recorded outputs.
// -json documents must match byte for byte; -plot runs must match from the
// contour map on (the informational header lines above it are free).
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"json_native.json", []string{"-algo", "native", "-json"}},
		{"json_planbouquet.json", []string{"-algo", "planbouquet", "-json"}},
		{"json_spillbound.json", []string{"-algo", "spillbound", "-json"}},
		{"json_alignedbound.json", []string{"-algo", "alignedbound", "-json"}},
		{"sql_spillbound.json", []string{"-sql", customSQL, "-algo", "spillbound", "-json"}},
		{"physical_planbouquet.json", []string{"-algo", "planbouquet", "-physical", "2000", "-json"}},
		{"physical_spillbound.json", []string{"-algo", "spillbound", "-physical", "2000", "-json"}},
		{"physical_alignedbound.json", []string{"-algo", "alignedbound", "-physical", "2000", "-json"}},
		{"plot_spillbound.txt", []string{"-algo", "spillbound", "-plot"}},
		{"plot_alignedbound.txt", []string{"-algo", "alignedbound", "-plot"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			args := append([]string{"-query", "2D_Q91"}, c.args...)
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("rqp %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
			}
			got := stdout.String()
			if strings.HasSuffix(c.golden, ".txt") {
				got, want = afterHeader(t, got), []byte(afterHeader(t, string(want)))
			}
			if got != string(want) {
				t.Errorf("rqp %s drifted from %s:\n%s\nwant:\n%s", strings.Join(args, " "), c.golden, got, want)
			}
		})
	}
}

// afterHeader cuts a -plot run's output at its contour map.
func afterHeader(t *testing.T, s string) string {
	t.Helper()
	i := strings.Index(s, "ESS contour map")
	if i < 0 {
		t.Fatalf("no contour map in output:\n%s", s)
	}
	return s[i:]
}

// TestStrategiesGolden pins the exact bytes of rqp -strategies against
// testdata/strategies.txt: the strategies in name order with their kinds and
// guarantee formulas.
func TestStrategiesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "strategies.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-strategies"}, &stdout, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("rqp -strategies drifted from strategies.txt:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

func TestListMatchesWorkload(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stdout); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(stdout.String())
	want := workload.Names()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list = %v, want %v", got, want)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-query", "9D_Q0"},
		{"-algo", "nosuch"},
		{"-profile", "nosuch"},
		{"-truth", "0.5"},
		{"-algo", "native", "-physical", "2000"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, &out); err == nil {
			t.Errorf("rqp %v should fail", args)
		}
	}
}
