package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sample is a benchmark binary's output: GOMAXPROCS suffixes, a
// sub-benchmark whose name ends in digits, and a run at GOMAXPROCS=1.
const sample = `goos: linux
goarch: amd64
pkg: qma
BenchmarkKernelEvent-2     	62343048	        19.29 ns/op	       0 B/op	       0 allocs/op
BenchmarkQTableUpdate/float64-2         	151073012	         7.943 ns/op
BenchmarkShardedMediumCells/C=16-2   	    1000	     12345 ns/op
BenchmarkLearnerObserve   	 100	  50 ns/op
PASS
ok  	qma	3.2s
`

func TestParseStream(t *testing.T) {
	res, err := parseStream(sample)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{
		"BenchmarkKernelEvent":             {62343048, 19.29},
		"BenchmarkQTableUpdate/float64":    {151073012, 7.943},
		"BenchmarkShardedMediumCells/C=16": {1000, 12345},
		"BenchmarkLearnerObserve":          {100, 50},
	}
	if len(res) != len(want) {
		t.Errorf("got %v, want %v", res, want)
	}
	for name, w := range want {
		if res[name] != w {
			t.Errorf("%s = %+v, want %+v", name, res[name], w)
		}
	}
}

func TestParseStreamRejectsGarbage(t *testing.T) {
	for _, out := range []string{
		"BenchmarkKernelEvent-2 \t 10 \t 1.2.3 ns/op\n",
		"BenchmarkKernelEvent-2 \t 10 \t 12 ns/op\nBenchmarkKernelEvent-2 \t 10 \t 13 ns/op\n",
	} {
		if _, err := parseStream(out); err == nil {
			t.Errorf("accepted %q", out)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[string][]string{"b": nil, "a": nil, "c": nil})
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("sortedKeys = %v", got)
	}
}

func TestQuartiles(t *testing.T) {
	if got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != [3]float64{3.25, 5.5, 7.75} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
	if got := quartiles([]float64{4}); got != [3]float64{4, 4, 4} {
		t.Errorf("quartiles(4) = %v", got)
	}
}

// testSpec gates one workload, w, on one metric of each direction and on
// tx_success_ratio.
var testSpec = spec{
	Workloads: []struct{ Name string }{{"w"}},
	EndToEnd: []metric{
		{"wall_s", "s", "lower", 0.25},
		{"events_per_s", "1/s", "higher", 0.25},
		{"tx_success_ratio", "ratio", "higher", 0.05},
	},
}

// fakeMeasure measures every row at 100 on both sides, and failed_share at
// 0, passing each sample through tweak with the side, the run's index on
// that side and the row. It logs each call as "side job".
func fakeMeasure(calls *[]string, tweak func(side, run int, row string, v float64) float64) func(int, string) (map[string]float64, error) {
	runs := map[string]int{}
	return func(side int, job string) (map[string]float64, error) {
		key := fmt.Sprint(side, " ", job)
		*calls = append(*calls, key)
		run := runs[key]
		runs[key]++
		names := gated[job]
		if names == nil {
			names = []string{job + " failed_share"}
			for _, m := range testSpec.EndToEnd {
				names = append(names, job+" "+m.Name)
			}
		}
		out := map[string]float64{}
		for _, name := range names {
			v := 100.0
			if strings.HasSuffix(name, " failed_share") {
				v = 0
			}
			out[name] = tweak(side, run, name, v)
		}
		return out, nil
	}
}

// scaleChange multiplies the change's samples of the rows matching name.
func scaleChange(name string, factor float64) func(int, int, string, float64) float64 {
	return func(side, _ int, row string, v float64) float64 {
		if side == 1 && strings.Contains(row, name) {
			return v * factor
		}
		return v
	}
}

func runGate(t *testing.T, tweak func(int, int, string, float64) float64) report {
	t.Helper()
	var calls []string
	rep, err := gate(fakeMeasure(&calls, tweak), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGatePassesWithinTolerance(t *testing.T) {
	var calls []string
	rep, err := gate(fakeMeasure(&calls, scaleChange("Benchmark", 1.1)), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Errorf("failures with every ns/op row 10%% slower: %v", rep.Failures)
	}
	if want := 13 + len(testSpec.EndToEnd) + 1; len(rep.Rows) != want {
		t.Errorf("%d rows, want 13 microbenchmarks and %d workload rows", len(rep.Rows), want-13)
	}
	for _, r := range rep.Rows {
		if strings.HasPrefix(r.Name, "Benchmark") && (r.Bound != 0.20 || r.Wins != 0 || fmt.Sprintf("%.3f", r.Worse) != "0.100") {
			t.Errorf("row %+v, want bound 0.20, 0 wins and 10%% worse", r)
		}
	}
	// Four jobs (three packages, one workload) per pair, the first side
	// flipping every pair.
	if len(calls) != 2*4*pairs {
		t.Fatalf("%d calls, want %d", len(calls), 2*4*pairs)
	}
	for p := 0; p < pairs; p++ {
		for j := 0; j < 4; j++ {
			first := calls[8*p+2*j]
			if want := fmt.Sprint(p % 2); !strings.HasPrefix(first, want+" ") {
				t.Fatalf("pair %d job %d ran %q first, want side %s", p, j, first, want)
			}
		}
	}
}

func TestGateFailsOnSlowRow(t *testing.T) {
	rep := runGate(t, scaleChange("BenchmarkKernelEvent", 1.25))
	if len(rep.Failures) != 1 || !strings.HasPrefix(rep.Failures[0], "BenchmarkKernelEvent:") {
		t.Errorf("failures = %v, want BenchmarkKernelEvent alone", rep.Failures)
	}
}

func TestGateHonoursBetter(t *testing.T) {
	for _, tc := range []struct {
		row    string
		factor float64
		fail   bool
	}{
		{"w wall_s", 1.3, true},
		{"w wall_s", 0.7, false},
		{"w wall_s", 1.2, false},
		{"w events_per_s", 0.7, true},
		{"w events_per_s", 1.3, false},
		{"w events_per_s", 0.8, false},
	} {
		rep := runGate(t, scaleChange(tc.row, tc.factor))
		if failed := len(rep.Failures) > 0; failed != tc.fail {
			t.Errorf("%s ×%v: failures %v, want failing %v", tc.row, tc.factor, rep.Failures, tc.fail)
		}
		for _, r := range rep.Rows {
			if better := tc.factor < 1 == (r.Better == "lower"); r.Name == tc.row && better && r.Wins != pairs {
				t.Errorf("%s ×%v: %d wins, want %d", tc.row, tc.factor, r.Wins, pairs)
			}
		}
	}
}

// dropping removes row from side's samples.
func dropping(measure func(int, string) (map[string]float64, error), side int, row string) func(int, string) (map[string]float64, error) {
	return func(s int, job string) (map[string]float64, error) {
		out, err := measure(s, job)
		if s == side {
			delete(out, row)
		}
		return out, err
	}
}

func TestGateErrorsOnVanishedBenchmark(t *testing.T) {
	var calls []string
	measure := dropping(fakeMeasure(&calls, scaleChange("", 1)), 1, "BenchmarkMediumTransmit")
	if _, err := gate(measure, testSpec); err == nil || !strings.Contains(err.Error(), "BenchmarkMediumTransmit") {
		t.Errorf("err = %v, want the vanished row named", err)
	}
}

func TestGateErrorsOnRowMissingFromBase(t *testing.T) {
	var calls []string
	measure := dropping(fakeMeasure(&calls, scaleChange("", 1)), 0, "w events_per_s")
	if _, err := gate(measure, testSpec); err == nil || !strings.Contains(err.Error(), "w events_per_s") {
		t.Errorf("err = %v, want the missing row named", err)
	}
}

func TestGateFailsOnRisingFailedShare(t *testing.T) {
	for _, failing := range []int{1, pairs} { // runs of the change where a tenth fails
		rep := runGate(t, func(side, run int, row string, v float64) float64 {
			if side == 1 && run < failing && row == "w failed_share" {
				return 0.1
			}
			return v
		})
		if len(rep.Failures) == 0 || !strings.HasPrefix(rep.Failures[0], "w failed_share") {
			t.Errorf("%d failing runs: failures = %v, want w failed_share", failing, rep.Failures)
		}
	}
}

func TestGateFailsOnVaryingTxSuccessRatio(t *testing.T) {
	for side := range 2 {
		rep := runGate(t, func(s, run int, row string, v float64) float64 {
			if s == side && run == 4 && row == "w tx_success_ratio" {
				return v * 0.999 // well inside the 5% bound
			}
			return v
		})
		if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "differs between runs") {
			t.Errorf("side %d: failures = %v, want tx_success_ratio differing", side, rep.Failures)
		}
	}
}

func TestGateErrorsOnRunnerFailure(t *testing.T) {
	measure := func(int, string) (map[string]float64, error) { return nil, fmt.Errorf("compile error") }
	if _, err := gate(measure, testSpec); err == nil {
		t.Error("runner failure swallowed")
	}
}

// TestRunBenchmarkRealExec builds the root package's test binary and runs
// single benchmarks through the production exec path.
func TestRunBenchmarkRealExec(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a test binary")
	}
	bin := filepath.Join(t.TempDir(), "qma.test")
	if out, err := exec.Command("go", "test", "-c", "-o", bin, "../..").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	res, err := runBenchmark(bin, "../..", "BenchmarkQTableUpdate/float64", "10x")
	if err != nil {
		t.Fatal(err)
	}
	if got := res["BenchmarkQTableUpdate/float64"]; len(res) != 1 || got.Iters != 10 || got.NsOp <= 0 {
		t.Errorf("results = %+v, want one row at 10 pinned iterations", res)
	}
	if res, err := runBenchmark(bin, "../..", "BenchmarkNoSuchBenchmark", "10x"); err != nil || len(res) != 0 {
		t.Errorf("no-match run = %v, %v, want no results and no error", res, err)
	}
}

// TestRunWorkloadReadsLastLine runs a stand-in for the BENCHMARK.json
// command that prints a provenance line before its result.
func TestRunWorkloadReadsLastLine(t *testing.T) {
	for _, tc := range []struct {
		script string
		want   map[string]float64 // nil: an error
	}{
		{`echo '{"provenance":{}}'; echo '{"correct":true,"attempted":4,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}'`,
			map[string]float64{"w wall_s": 1.5, "w failed_share": 0}},
		{`echo '{"correct":false,"attempted":4,"failed":1,"metrics":{}}'; exit 1`,
			map[string]float64{"w failed_share": 0.25}},
		{`echo '{"provenance":{}}'; exit 2`, nil},
	} {
		s := spec{Command: []string{"bash", "-c", tc.script, "stand-in"}, RunSeconds: 1}
		got, err := runWorkload(s, ".", "w")
		if tc.want == nil && err == nil || tc.want != nil && (err != nil || !maps.Equal(got, tc.want)) {
			t.Errorf("%s: got %v, %v, want %v", tc.script, got, err, tc.want)
		}
	}
}

// TestBenchRecordsAreWellFormed decodes every committed BENCH_*.json as a
// gate report, so a truncated or hand-edited record fails.
func TestBenchRecordsAreWellFormed(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json record in the repository root (%v)", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			dec := json.NewDecoder(f)
			dec.DisallowUnknownFields()
			var rep report
			if err := dec.Decode(&rep); err != nil {
				t.Fatal(err)
			}
			if dec.More() {
				t.Fatal("trailing data after the report")
			}
			if rep.Base == "" || rep.Head == "" || rep.Host == "" || rep.Pairs != pairs {
				t.Errorf("provenance %q / %q / %q, %d pairs", rep.Base, rep.Head, rep.Host, rep.Pairs)
			}
			for _, r := range rep.Rows {
				failed := slices.ContainsFunc(rep.Failures, func(f string) bool { return strings.HasPrefix(f, r.Name+":") })
				if !slices.IsSorted(r.Base[:]) || !slices.IsSorted(r.Head[:]) || r.Wins > rep.Pairs || failed != (r.Worse > r.Bound) {
					t.Errorf("inconsistent row %+v", r)
				}
			}
			for _, rows := range gated {
				for _, name := range rows {
					if !slices.ContainsFunc(rep.Rows, func(r row) bool { return r.Name == name }) {
						t.Errorf("gated row %s missing", name)
					}
				}
			}
		})
	}
}
