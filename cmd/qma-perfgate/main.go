// Command qma-perfgate is the performance gate. From the repository root,
// `qma-perfgate -base <rev>` measures the working tree against rev on the
// same host in 10 alternating pairs. Each pair runs the gated
// microbenchmarks, at the iteration counts of their first base run, and
// every workload of the base's BENCHMARK.json. The change fails when a
// row's median is worse than the base's by more than the row's bound,
// nsBound for ns/op, the BENCHMARK.json bound for an end-to-end metric and 0
// for a workload's share of failed operations, or when that share or
// tx_success_ratio differs between runs of one tree. A table goes to
// stderr, one JSON report to stdout, and exit status 1 means a regression.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const (
	pairs   = 10
	nsBound = 0.20 // the largest ns/op regression a microbenchmark may show
)

// gated lists the gated microbenchmark rows per package.
var gated = map[string][]string{
	"qma": {"BenchmarkKernelEvent", "BenchmarkQTableUpdate/float64", "BenchmarkQTableUpdate/fixedQ8.8",
		"BenchmarkQTableUpdate/quant8bit", "BenchmarkLearnerObserve", "BenchmarkMediumTransmit",
		"BenchmarkHandshakeMatrix"},
	"qma/internal/radio": {"BenchmarkShardedMediumCells/C=1", "BenchmarkShardedMediumCells/C=4",
		"BenchmarkShardedMediumCells/C=16"},
	"qma/internal/scenario": {"BenchmarkRunShardedWorkers/workers=1", "BenchmarkRunShardedWorkers/workers=2",
		"BenchmarkRunShardedWorkers/workers=4"},
}

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command    []string
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metric `json:"end_to_end"`
}

// metric is a gated row: which way is better, and by how much (a fraction
// of the base's median) the change may be worse.
type metric struct {
	Name, Unit, Better string
	Bound              float64
}

type result struct {
	Iters int
	NsOp  float64
}

// report is the JSON document the gate prints, and a committed
// BENCH_<date>.json.
type report struct {
	Base, Head, Host string
	Pairs            int
	Rows             []row
	Failures         []string
}

// row holds each side's q1, median and q3, how much worse the change's
// median is (a fraction of the base's, or the difference when that is 0),
// and the pairs the change won.
type row struct {
	metric
	Base, Head [3]float64
	Worse      float64
	Wins       int
}

func main() {
	log.SetFlags(0)
	base := flag.String("base", "", "git revision to compare the working tree against")
	flag.Parse()
	if *base == "" || flag.NArg() > 0 {
		log.Fatal("usage: qma-perfgate -base <rev>")
	}
	rep, err := gateRevision(*base)
	if err != nil {
		log.Fatalf("qma-perfgate: %v", err)
	}
	fmt.Fprintf(os.Stderr, "%-44s %12s %12s %8s %5s %5s\n", "row", "base median", "change", "worse", "wins", "bound")
	for _, r := range rep.Rows {
		fmt.Fprintf(os.Stderr, "%-44s %12.4g %12.4g %+7.1f%% %2d/%-2d %4.0f%%\n",
			r.Name, r.Base[1], r.Head[1], 100*r.Worse, r.Wins, rep.Pairs, 100*r.Bound)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	b, _ := json.MarshalIndent(rep, "", "  ") // compare keeps every value finite
	fmt.Println(string(b))
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}

// prepare extracts the base into $OUT/base, builds the test binaries of the
// base into $OUT/bin0 and of the working tree into $OUT/bin1, and prints the
// base commit, the working tree, the host and the base's BENCHMARK.json.
const prepare = `set -euo pipefail
git rev-parse --verify "$BASE^{commit}"
git describe --always --dirty --abbrev=40
echo "$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo), nproc $(nproc), $(go version), $(date -u +%FT%TZ)"
mkdir "$OUT/base"
git archive "$BASE" | tar -x -C "$OUT/base"
(cd "$OUT/base" && go test -c -o "$OUT/bin0/" "$@")
go test -c -o "$OUT/bin1/" "$@"
cat "$OUT/base/BENCHMARK.json"`

// gateRevision prepares both trees and gates the working tree against rev.
func gateRevision(rev string) (report, error) {
	tmp, err := os.MkdirTemp("", "qma-perfgate-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(tmp)
	cmd := exec.Command("bash", append([]string{"-c", prepare, "prepare"}, sortedKeys(gated)...)...)
	cmd.Env, cmd.Stderr = append(os.Environ(), "BASE="+rev, "OUT="+tmp), os.Stderr
	out, err := cmd.Output()
	lines := strings.SplitN(string(out), "\n", 4)
	var s spec
	if err != nil || len(lines) != 4 || json.Unmarshal([]byte(lines[3]), &s) != nil {
		return report{}, fmt.Errorf("prepare %s: %v, or no BENCHMARK.json", rev, err)
	}
	benchtime := map[string]string{} // row -> -test.benchtime, pinned to its first run
	rep, err := gate(func(side int, job string) (map[string]float64, error) {
		tree, out := [2]string{filepath.Join(tmp, "base"), "."}[side], map[string]float64{}
		for _, name := range gated[job] {
			bin := filepath.Join(tmp, fmt.Sprint("bin", side), filepath.Base(job)+".test")
			res, err := runBenchmark(bin, filepath.Join(tree, strings.TrimPrefix(job, "qma")), name, cmp.Or(benchtime[name], "1s"))
			if _, ok := res[name]; err == nil && !ok {
				err = fmt.Errorf("%s: no result", name)
			}
			if err != nil {
				return nil, err
			}
			benchtime[name], out[name] = fmt.Sprintf("%dx", res[name].Iters), res[name].NsOp
		}
		if _, micro := gated[job]; micro {
			return out, nil
		}
		return runWorkload(s, tree, job)
	}, s)
	rep.Base, rep.Head, rep.Host = rev+" = "+lines[0], "working tree at "+lines[1], lines[2]
	return rep, err
}

// gate runs the pairs, the first side flipping every pair, and compares the
// sides. measure runs one job, a gated package or a BENCHMARK.json
// workload, once on side 0 (the base) or 1 and returns one sample per row;
// every job runs first on the base.
func gate(measure func(side int, job string) (map[string]float64, error), s spec) (report, error) {
	var rows []metric
	jobs := sortedKeys(gated)
	for _, pkg := range jobs {
		for _, name := range gated[pkg] {
			rows = append(rows, metric{name, "ns/op", "lower", nsBound})
		}
	}
	for _, w := range s.Workloads {
		jobs = append(jobs, w.Name)
		for _, m := range append(s.EndToEnd, metric{"failed_share", "ratio", "lower", 0}) {
			m.Name = w.Name + " " + m.Name
			rows = append(rows, m)
		}
	}
	samples := [2]map[string][]float64{{}, {}}
	for p := 0; p < pairs; p++ {
		fmt.Fprintf(os.Stderr, "qma-perfgate: pair %d/%d\n", p+1, pairs)
		for _, job := range jobs {
			for _, i := range [2]int{p % 2, 1 - p%2} {
				out, err := measure(i, job)
				if err != nil {
					return report{}, fmt.Errorf("%s on the %s: %v", job, [2]string{"base", "change"}[i], err)
				}
				for name, v := range out {
					samples[i][name] = append(samples[i][name], v)
				}
			}
		}
	}
	return compare(rows, samples)
}

// compare applies the gate's rules to the samples of both sides.
func compare(rows []metric, samples [2]map[string][]float64) (report, error) {
	rep := report{Pairs: pairs, Failures: []string{}}
	fail := func(format string, args ...any) { rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...)) }
	for _, m := range rows {
		b, h := samples[0][m.Name], samples[1][m.Name]
		sign := map[string]float64{"lower": 1, "higher": -1}[m.Better]
		if len(b) != pairs || len(h) != pairs || sign == 0 {
			return rep, fmt.Errorf("row %s (better %q) has %d and %d runs, want %d", m.Name, m.Better, len(b), len(h), pairs)
		}
		r := row{metric: m, Base: quartiles(b), Head: quartiles(h)}
		if r.Worse = sign * (r.Head[1] - r.Base[1]); r.Base[1] != 0 {
			r.Worse /= math.Abs(r.Base[1]) // relative, or absolute from a median of 0
		}
		for i := range b {
			if sign*(h[i]-b[i]) < 0 {
				r.Wins++
			}
		}
		if r.Worse > m.Bound {
			fail("%s: median %+.1f%% worse, bound %.0f%%", m.Name, 100*r.Worse, 100*m.Bound)
		}
		exact := strings.HasSuffix(m.Name, " tx_success_ratio") || strings.HasSuffix(m.Name, " failed_share")
		if exact && (slices.Min(b) != slices.Max(b) || slices.Min(h) != slices.Max(h)) {
			fail("%s differs between runs of one tree", m.Name)
		}
		rep.Rows = append(rep.Rows, r)
	}
	return rep, nil
}

// quartiles returns q1, the median and q3, interpolating linearly.
func quartiles(v []float64) [3]float64 {
	s := slices.Sorted(slices.Values(v))
	at := func(p float64) float64 {
		i, f := math.Modf(p * float64(len(s)-1))
		return s[int(i)] + f*(s[min(int(i)+1, len(s)-1)]-s[int(i)])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// runWorkload runs the BENCHMARK.json command in tree and reads the last
// line it prints. A failing run that still prints a result counts through
// its failed operations.
func runWorkload(s spec, tree, name string) (map[string]float64, error) {
	cmd := exec.Command(s.Command[0], append(slices.Clone(s.Command[1:]), "--workload", name, "--seconds", fmt.Sprint(s.RunSeconds))...)
	cmd.Dir, cmd.Stderr = tree, os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res struct {
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || res.Attempted == 0 {
		return nil, fmt.Errorf("no result line (%v)", err)
	}
	out := map[string]float64{name + " failed_share": float64(res.Failed) / float64(res.Attempted)}
	for m, v := range res.Metrics {
		out[name+" "+m] = v.Value
	}
	return out, nil
}

// runBenchmark runs exactly the benchmark name from a test binary in its
// package directory.
func runBenchmark(bin, dir, name, benchtime string) (map[string]result, error) {
	cmd := exec.Command(bin, "-test.run=^$", "-test.count=1", "-test.timeout=10m", "-test.benchtime="+benchtime,
		"-test.bench=^"+strings.ReplaceAll(regexp.QuoteMeta(name), "/", "$/^")+"$")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %v: %s", filepath.Base(bin), err, out)
	}
	return parseStream(string(out))
}

// benchLine matches a result line; the name carries a -GOMAXPROCS suffix
// unless GOMAXPROCS is 1.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)

// parseStream reads a benchmark binary's output and returns the result per
// full benchmark name (e.g. "BenchmarkQTableUpdate/float64").
func parseStream(output string) (map[string]result, error) {
	out := make(map[string]result)
	for _, m := range benchLine.FindAllStringSubmatch(output, -1) {
		iters, _ := strconv.Atoi(m[2]) // a run of over 2^63 iterations never ends
		ns, err := strconv.ParseFloat(m[3], 64)
		if _, dup := out[m[1]]; dup || err != nil {
			return nil, fmt.Errorf("bad or repeated result line %q", m[0])
		}
		out[m[1]] = result{iters, ns}
	}
	return out, nil
}

func sortedKeys(m map[string][]string) []string { return slices.Sorted(maps.Keys(m)) }
