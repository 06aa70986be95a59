// Command perfbench is the repository benchmark. Each invocation runs one
// workload in its own process and prints, as the last line of its standard
// output, one JSON object: whether every output was correct, how many
// measured units it attempted and how many failed, and its metrics — the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload city-20k-hot --seed 42 --seconds 50 --trace 0
//
// Workloads:
//
//	hall-10k      monolithic N=10k factory hall, QMA with the float64 table
//	city-20k-hot  sharded 20k-device 4×4 city with a 30% hotspot cell
//	paper-golden  the paper's hidden-node, testbed, baseline and DSME
//	              experiments in golden mode, checked against the digests
//
// BENCHMARK.json lists city-20k-hot and paper-golden. hall-10k stays
// runnable for the Q-state memory-wall question but is not listed: being
// single-threaded and memory-bound, it is the workload most exposed to
// cache and memory-bandwidth contention from other tenants of a shared
// host, and its run-to-run spread there exceeds any bound worth gating on.
//
// The untraced run repeats the workload's unit of work (one simulation or
// one pass over the experiments) while another one fits into --seconds and
// reports medians. The traced run simulates the unit once with the protocol
// factories only observed, under a CPU profile, then again with spans at
// the MAC and learner boundaries, and checks that both produced the same
// simulated counters.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is the fewest times a run builds the inputs to time set-up;
	// the median is reported.
	setupReps = 5
	// minReps is the fewest measured units a run takes a median over.
	minReps = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed unit of work.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "hall-10k, city-20k-hot or paper-golden")
	seed := flag.Uint64("seed", 42, "seed the workload's inputs are generated from")
	secs := flag.Float64("seconds", 50, "how long the untraced run measures")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	rec := &recorder{}
	var w workload
	switch *name {
	case "hall-10k":
		w = &hall{seed: *seed}
	case "city-20k-hot":
		w = &city{seed: *seed, parallel: cityParallel}
	case "paper-golden":
		g, err := newGolden(*seed, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		w = g
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	prov, err := json.Marshal(map[string]any{"provenance": provenance(*name, *seed, *secs, *trace, w)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(prov))

	var r *report
	if *trace == 1 {
		r = traced(w, rec)
	} else {
		r = measure(w, rec, *secs)
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !r.Correct {
		os.Exit(1)
	}
}

// setupTimes builds the inputs at least setupReps times and until a second
// has passed, so a set-up of a few milliseconds still gets a steady median.
func setupTimes(w workload) (topos, scenarios, totals []float64) {
	start := time.Now()
	for len(totals) < setupReps || (seconds(start) < 1 && len(totals) < 100) {
		runtime.GC() // every set-up starts from the same heap
		topoS, scenarioS := w.setup()
		topos = append(topos, topoS)
		scenarios = append(scenarios, scenarioS)
		totals = append(totals, topoS+scenarioS)
	}
	return topos, scenarios, totals
}

// runRep runs one unit of work with the protocol factories instrumented,
// completes its outcome from the engines they recorded and checks it.
func runRep(w workload, rec *recorder, spans bool) (outcome, tally, float64, error) {
	runtime.GC() // start every rep from the same heap, outside the timed span
	restore := instrument(rec, spans)
	t := time.Now()
	o, err := w.rep()
	wall := seconds(t)
	restore()
	tl := rec.take()
	o.TxAttempts, o.TxSuccess = tl.txAttempts, tl.txSuccess
	if err == nil {
		err = o.check()
	}
	if err == nil && (tl.events != o.Events || tl.radio != o.Radio) {
		err = fmt.Errorf("engine counters (%d events, %+v) disagree with the run's result (%d events, %+v)",
			tl.events, tl.radio, o.Events, o.Radio)
	}
	return o, tl, wall, err
}

// measure is the untraced run: set-up timed several times, then the unit of
// work repeated while another rep fits into secs (and at least minReps
// times). Every rep of the seed must reproduce the first one's simulated
// counters.
func measure(w workload, rec *recorder, secs float64) *report {
	r := &report{Correct: true, Metrics: map[string]metric{}}
	_, _, setups := setupTimes(w)
	var walls, rates []float64
	var first *outcome
	last := 0.0 // the latest rep's wall time, the estimate for the next one
	start := time.Now()
	for r.Attempted < minReps || seconds(start)+last < secs {
		o, _, wall, err := runRep(w, rec, false)
		last = wall
		r.Attempted++
		if err == nil && first != nil && !reflect.DeepEqual(o, *first) {
			err = fmt.Errorf("simulated counters differ from the first rep of the same seed")
		}
		if err != nil {
			r.fail("rep %d: %v", r.Attempted, err)
			continue
		}
		if first == nil {
			first = &o
			fmt.Fprintf(os.Stderr, "perfbench: %d events, %d tx attempts, %d generated, %d delivered\n",
				o.Events, o.TxAttempts, o.Generated, o.Delivered)
		}
		walls = append(walls, wall)
		rates = append(rates, float64(o.Events)/wall)
	}
	if first == nil {
		return r
	}
	fmt.Fprintf(os.Stderr, "perfbench: rep wall times %.3f s\n", walls)
	r.put("wall_s", median(walls), "s")
	r.put("events_per_s", median(rates), "1/s")
	r.put("setup_s", median(setups), "s")
	r.put("peak_rss_mb", peakRSSMB(), "MB")
	r.put("tx_success_ratio", ratio(first.TxSuccess, first.TxAttempts), "ratio")
	return r
}

// traced is the per-layer run. It simulates the unit of work once with the
// factories only observed, under a CPU profile folded into layers, and once
// with spans; the city also runs its traced unit on one worker. Every pair
// must agree on the simulated counters.
func traced(w workload, rec *recorder) *report {
	r := &report{Correct: true, Metrics: map[string]metric{}}
	topos, scenarios, _ := setupTimes(w)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU(), cpuSeconds()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.fail("cpu profile: %v", err)
		return r
	}
	ref, obs, wallRef, err := runRep(w, rec, false)
	pprof.StopCPUProfile()
	cpuRef := cpuSeconds() - cpu0
	gc1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	r.Attempted++
	if err != nil {
		r.fail("reference rep: %v", err)
		return r
	}

	tr, spans, wallTr, err := runRep(w, rec, true)
	r.Attempted++
	if err == nil && !reflect.DeepEqual(ref, tr) {
		err = fmt.Errorf("traced counters differ from the untraced run: %+v vs %+v", tr, ref)
	}
	if err != nil {
		r.fail("traced rep: %v", err)
	}
	if c, ok := w.(*city); ok {
		want := c.last
		c.parallel = 1
		_, _, _, err := runRep(c, rec, true)
		c.parallel = cityParallel
		r.Attempted++
		if err == nil && !reflect.DeepEqual(c.last, want) {
			err = fmt.Errorf("traced result differs between Parallel=1 and Parallel=%d", cityParallel)
		}
		if err != nil {
			r.fail("traced single-worker rep: %v", err)
		}
	}

	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		r.fail("%v", err)
		return r
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
		r.put(l+".self_share", shares[l], "ratio")
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		r.fail("layer shares sum to %v, not 1", sum)
	}

	events := float64(ref.Events)
	r.put("sim.events", events, "count")
	r.put("sim.ns_per_event", shares["sim"]*cpuRef*1e9/events, "ns")
	r.put("radio.tx", float64(ref.Radio.TxCount), "count")
	r.put("radio.rx_collided_ratio", ratio(ref.Radio.RxCollided, ref.Radio.RxDelivered+ref.Radio.RxCollided), "ratio")
	r.put("radio.cca_busy_ratio", ratio(ref.Radio.CCABusy, ref.Radio.CCACount), "ratio")
	r.put("radio.foreign_busy", float64(ref.ForeignBusy), "count")
	r.put("mac.deliver_calls", float64(spans.deliver.calls), "count")
	r.put("mac.deliver_ns", spans.deliver.perCall(), "ns")
	r.put("mac.enqueue_calls", float64(spans.enqueue.calls), "count")
	r.put("mac.tx_success_ratio", ratio(obs.txSuccess, obs.txAttempts), "ratio")
	r.put("mac.queue_drops", float64(obs.queueDrops), "count")
	r.put("qlearn.calls", float64(spans.qlearn.calls), "count")
	r.put("qlearn.call_ns", spans.qlearn.perCall(), "ns")
	r.put("scenario.build_s", median(scenarios), "s")
	r.put("scenario.pdr", ref.PDR, "ratio")
	r.put("scenario.delay_mean_ms", ref.DelayMS, "sim_ms")
	r.put("topo.build_s", median(topos), "s")
	r.put("stats.worker_busy_frac", cpuRef/(wallRef*float64(w.workers())), "ratio")
	r.put("stats.cell_imbalance", imbalance(ref.CellEvents), "ratio")
	r.put("runtime.gc_share", gc1.share(gc0), "ratio")
	r.put("runtime.alloc_bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/events, "B")
	r.put("runtime.mallocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/events, "count")
	r.put("trace.overhead_s", wallTr-wallRef, "s")
	return r
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// imbalance is the busiest cell's event count over the mean (1 for a
// monolithic run).
func imbalance(cells []uint64) float64 {
	if len(cells) == 0 {
		return 1
	}
	var sum uint64
	for _, c := range cells {
		sum += c
	}
	return float64(slices.Max(cells)) * float64(len(cells)) / float64(sum)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuClasses is a snapshot of the runtime's CPU accounting.
type cpuClasses struct{ gc, total, idle float64 }

func gcCPU() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), total: s[1].Value.Float64(), idle: s[2].Value.Float64()}
}

// share is the GC's fraction of the non-idle CPU time since before.
func (c cpuClasses) share(before cpuClasses) float64 {
	busy := (c.total - before.total) - (c.idle - before.idle)
	if busy <= 0 {
		return 0
	}
	return (c.gc - before.gc) / busy
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// provenance records what produced a result: toolchain, parallelism,
// revision, inputs and hardware.
func provenance(name string, seed uint64, secs float64, trace int, w workload) map[string]any {
	p := map[string]any{
		"workload":      name,
		"seed":          seed,
		"seconds":       secs,
		"trace":         trace,
		"params":        w.params(),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"vcs_revision":  "unknown",
		"source_sha256": sourceDigest(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["vcs_revision"] = s.Value
			case "vcs.modified":
				p["vcs_modified"] = s.Value
			}
		}
	}
	return p
}

// sourceDigest hashes the Go sources and golden digests under the working
// directory, identifying the revision when the checkout carries no VCS
// metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".json") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
