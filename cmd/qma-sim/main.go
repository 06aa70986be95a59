// Command qma-sim runs a single scenario from flags and prints per-node
// metrics — the quickest way to poke at the simulator.
//
// Example:
//
//	qma-sim -topology hidden -mac qma -delta 25 -duration 200 -seed 1
//	qma-sim -topology rings3 -mac unslotted -dsme -duration 400
//	qma-sim -scale 10000 -delta 0.5 -duration 10 -warmup 1   # 10k-node factory hall
//	qma-sim -mmtc 100000 -cells 8x8 -delta 0.1 -duration 30 -warmup 5   # sharded city
//	qma-sim -fault-outage 1@100+5+beacons -fault-reboot 0@120 -duration 200
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"qma"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive the full flag
// surface — including every parse-error path — in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qma-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)

	topology := fs.String("topology", "hidden", "hidden | tree | star | rings1..rings4")
	macFlag := fs.String("mac", "qma", "MAC protocol: "+macNames()+" (aliases like unslotted/slotted work too)")
	var macOpts kvFlag
	fs.Var(&macOpts, "mac-opt", "protocol option as key=value, repeatable (e.g. -mac csma -mac-opt minbe=2; -mac noma -mac-opt levels=3)")
	captureDB := fs.Float64("capture-db", 0, "SINR capture threshold in dB: the strongest overlapping frame decodes when it clears the interferer sum by this margin (0 = no capture; give noma runs 6 or so)")
	delta := fs.Float64("delta", 10, "packet generation rate per source [pkt/s]")
	duration := fs.Float64("duration", 200, "simulated seconds")
	warmup := fs.Float64("warmup", 50, "seconds before evaluation traffic / measurement")
	seed := fs.Uint64("seed", 1, "random seed")
	useDSME := fs.Bool("dsme", false, "run the DSME GTS scenario instead of plain contention")
	scale := fs.Int("scale", 0, "run a random-uniform factory hall with this many nodes instead of -topology")
	mmtc := fs.Int("mmtc", 0, "run a multi-cell sharded city with this many devices instead of -topology (one sink per cell, boundary-interference exchange at beacon epochs)")
	cellsSpec := fs.String("cells", "", "cell grid for -mmtc as XxY, e.g. 8x8 (default 4x4; 1x1 is monolithic-equivalent)")
	parallel := fs.Int("parallel", 0, "worker pool driving -mmtc cells (0 = all cores; results are byte-identical for every value)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after the run, post-GC) to this file")
	summaryOnly := fs.Bool("summary-only", false, "skip per-node results: O(1) result memory, network totals only (plain and -scale paths)")
	degree := fs.Float64("degree", 0, "factory-hall/city target mean decode degree (0 = default 10)")
	dynamics := fs.Bool("dynamics", false, "enable link dynamics: a canned burst fade at -fade-node (see -fade-*)")
	fadeNode := fs.Int("fade-node", -1, "node to deep-fade with -dynamics (-1 = the sink)")
	fadeAt := fs.Float64("fade-at", -1, "fade start in seconds (-1 = half of -duration)")
	fadeFor := fs.Float64("fade-for", 5, "fade duration in seconds")
	geBad := fs.Float64("ge-bad", 0, "Gilbert–Elliott mean bad-state sojourn in seconds (0 = off; >0 enables the GE channel, with or without -dynamics)")
	geGood := fs.Float64("ge-good", 10, "Gilbert–Elliott mean good-state sojourn in seconds")
	var flt faultFlags
	fs.Var(&flt.outages, "fault-outage", "sink/node outage as NODE@AT+DUR or NODE@AT+DUR+beacons (seconds; +beacons also stops the node's beacons), repeatable")
	fs.Var(&flt.reboots, "fault-reboot", "node reboot (wipes learning state) as NODE@AT in seconds, repeatable")
	fs.Var(&flt.ackCorrupt, "fault-ack-corrupt", "global ACK-corruption window as AT+DUR in seconds, repeatable")
	fs.Var(&flt.beaconLoss, "fault-beacon-loss", "per-node beacon loss as NODE@AT+DUR in seconds, repeatable")
	loadMult := fs.Float64("load-mult", 1, "offered-load multiplier applied to -delta (overload experiments)")
	barringPolicy := fs.String("barring", "", "sink-side access-class barring policy: fixed | aimd | pid (empty = off)")
	barringP := fs.Float64("barring-p", 0, "barring factor for -barring fixed / initial factor for the adaptive policies (0 = fully open)")
	barringTarget := fs.Float64("barring-target", 0, "collision-ratio setpoint for -barring aimd/pid (0 = 0.1)")
	barringInterval := fs.Float64("barring-interval", 0, "barring beacon/observation interval in seconds (0 = one superframe)")
	barringBackoff := fs.Float64("barring-backoff", 0, "base wait of a barred node before redrawing, in seconds (0 = one superframe)")
	dropPolicy := fs.String("drop-policy", "", "full-queue backpressure policy: tail (default) | oldest | deadline")
	dropDeadline := fs.Float64("drop-deadline", 0, "queue-residence deadline in seconds for -drop-policy deadline (0 = 16 superframes)")
	if err := fs.Parse(args); err != nil {
		return 2 // the FlagSet already printed the offending flag to stderr
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "qma-sim:", err)
		return 1
	}

	// Profiles cover everything from here on (topology build included) and
	// are finalized on every exit path. Files are created eagerly so a bad
	// path fails before the simulation instead of after it.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(fmt.Errorf("-memprofile: %w", err))
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "qma-sim: -memprofile:", err)
			}
			f.Close()
		}()
	}

	mk, err := qma.ParseMAC(*macFlag)
	if err != nil {
		return fail(err)
	}

	wantDynamics := *dynamics || *geBad > 0
	plainOnly := wantDynamics || flt.enabled() || *barringPolicy != "" || *dropPolicy != ""
	if plainOnly && (*scale > 0 || *useDSME || *mmtc > 0) {
		return fail(fmt.Errorf("-dynamics/-ge-bad, -fault-* and -barring/-drop-policy are only supported on the plain contention path (not -scale, -dsme or -mmtc)"))
	}
	if !(*loadMult > 0 && *loadMult <= math.MaxFloat64) {
		return fail(fmt.Errorf("-load-mult %g must be positive and finite", *loadMult))
	}
	rate := *delta * *loadMult

	if *mmtc > 0 {
		switch {
		case *scale > 0 || *useDSME:
			return fail(fmt.Errorf("-mmtc is exclusive with -scale and -dsme"))
		case len(macOpts.kv) > 0 || *captureDB != 0:
			return fail(fmt.Errorf("-mac-opt/-capture-db are not supported on the -mmtc path"))
		case *summaryOnly:
			return fail(fmt.Errorf("-summary-only is implied by -mmtc (the sharded runner never holds per-node results)"))
		}
	} else if *cellsSpec != "" {
		return fail(fmt.Errorf("-cells requires -mmtc"))
	}
	if (*mmtc > 0 || *scale > 0) && *warmup >= *duration {
		return fail(fmt.Errorf("-warmup %g must be below -duration %g (no time left to measure)", *warmup, *duration))
	}

	if *mmtc > 0 {
		cx, cy, err := parseCells(*cellsSpec)
		if err != nil {
			return fail(err)
		}
		return runMMTC(stdout, stderr, *mmtc, cx, cy, *degree, mk, rate, *duration, *warmup, *seed, *parallel)
	}
	if *scale > 0 {
		return runScale(stdout, stderr, *scale, *degree, mk, macOpts.kv, *captureDB, rate, *duration, *warmup, *seed, *summaryOnly)
	}

	topo, err := parseTopology(*topology)
	if err != nil {
		return fail(err)
	}

	if *useDSME {
		res, err := (&qma.DSMEScenario{
			Topology:        topo,
			MAC:             mk,
			Seed:            *seed,
			DurationSeconds: *duration,
			WarmupSeconds:   *warmup,
		}).Run()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "secondary PDR        %.3f\n", res.SecondaryPDR)
		fmt.Fprintf(stdout, "GTS-request success  %.3f\n", res.RequestSuccess)
		fmt.Fprintf(stdout, "(de)allocations/s    %.2f\n", res.AllocationsPerSecond)
		fmt.Fprintf(stdout, "primary PDR          %.3f (delay %.3fs)\n", res.PrimaryPDR, res.PrimaryDelaySeconds)
		fmt.Fprintf(stdout, "duplicate GTS        %d\n", res.DuplicateAllocations)
		return 0
	}

	sc := &qma.Scenario{
		Topology:           topo,
		MAC:                mk,
		MACOptions:         macOpts.kv,
		CaptureThresholdDB: *captureDB,
		Seed:               *seed,
		DurationSeconds:    *duration,
		MeasureFromSeconds: *warmup,
		SummaryOnly:        *summaryOnly,
	}
	sink := topo.Sink()
	if wantDynamics {
		sc.Dynamics = &qma.Dynamics{}
		msg := "dynamics:"
		if *dynamics {
			node := *fadeNode
			if node < 0 {
				node = sink
			}
			at := *fadeAt
			if at < 0 {
				at = *duration / 2
			}
			sc.Dynamics.Fades = []qma.Fade{{Node: node, AtSeconds: at, ForSeconds: *fadeFor}}
			msg += fmt.Sprintf(" deep fade at node %d from %gs for %gs;", node, at, *fadeFor)
		}
		if *geBad > 0 {
			sc.Dynamics.Channel = qma.GilbertElliott{
				MeanGoodSeconds: *geGood,
				MeanBadSeconds:  *geBad,
				LossBad:         1,
			}
			msg += fmt.Sprintf(" Gilbert–Elliott channel good %gs / bad %gs;", *geGood, *geBad)
		}
		fmt.Fprintln(stdout, strings.TrimSuffix(msg, ";"))
	}
	if flt.enabled() {
		sc.Faults = flt.build()
		fmt.Fprintf(stdout, "faults: %d outage(s), %d reboot(s), %d ACK-corruption window(s), %d beacon-loss window(s)\n",
			len(sc.Faults.Outages), len(sc.Faults.Reboots), len(sc.Faults.AckCorruption), len(sc.Faults.BeaconLoss))
	}
	if *barringPolicy != "" {
		sc.Barring = &qma.Barring{
			Policy:          *barringPolicy,
			P:               *barringP,
			Target:          *barringTarget,
			IntervalSeconds: *barringInterval,
			BackoffSeconds:  *barringBackoff,
		}
		fmt.Fprintf(stdout, "barring: %s controller\n", *barringPolicy)
	}
	sc.DropPolicy = *dropPolicy
	sc.DropDeadlineSeconds = *dropDeadline
	if *loadMult != 1 {
		fmt.Fprintf(stdout, "offered load: %g pkt/s per source (%gx)\n", rate, *loadMult)
	}
	for i := 0; i < topo.NumNodes(); i++ {
		if i == sink {
			continue
		}
		sc.Traffic = append(sc.Traffic,
			qma.Traffic{Origin: i, Phases: []qma.Phase{{Rate: 0.2}}, StartSeconds: 1, Management: true},
			qma.Traffic{Origin: i, Phases: []qma.Phase{{Rate: rate}}, StartSeconds: *warmup},
		)
	}
	res, err := sc.Run()
	if err != nil {
		return fail(err)
	}

	if sc.Barring != nil && !sc.SummaryOnly {
		var barred, deadline uint64
		for _, n := range res.Nodes {
			barred += n.Barred
			deadline += n.DeadlineDrops
		}
		fmt.Fprintf(stdout, "barred attempts %d   deadline drops %d\n", barred, deadline)
	}
	if sc.SummaryOnly {
		fmt.Fprintf(stdout, "network PDR  %.3f   mean delay %.3fs   events %d\n", res.NetworkPDR, res.MeanDelaySeconds, res.Events)
		return 0
	}
	fmt.Fprintf(stdout, "network PDR  %.3f   mean delay %.3fs\n\n", res.NetworkPDR, res.MeanDelaySeconds)
	fmt.Fprintf(stdout, "%-6s %-5s %-9s %-9s %-7s %-8s %s\n", "node", "pdr", "delay[s]", "queue", "tx", "drops", "policy")
	for _, n := range res.Nodes {
		if n.Generated == 0 && n.TxAttempts == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%-6s %-5.3f %-9.3f %-9.2f %-7d %-8d %s\n",
			n.Label, n.PDR, n.MeanDelaySeconds, n.AvgQueueLevel,
			n.TxAttempts, n.RetryDrops+n.QueueDrops, n.Policy)
	}
	return 0
}

// runScale builds a factory hall and reports aggregate metrics plus
// simulator throughput instead of a 10,000-row per-node table. Like the
// plain path it honours -warmup: evaluation traffic starts and measurement
// begins there (pass -warmup 1 or so for quick throughput probes).
func runScale(stdout, stderr io.Writer, nodes int, degree float64, mk qma.MAC, macOpts map[string]string, captureDB, delta, duration, warmup float64, seed uint64, summaryOnly bool) int {
	buildStart := time.Now()
	topo, err := qma.FactoryHall(nodes, degree, seed)
	if err != nil {
		fmt.Fprintln(stderr, "qma-sim:", err)
		return 1
	}
	buildWall := time.Since(buildStart)

	sc := &qma.Scenario{
		Topology:           topo,
		MAC:                mk,
		MACOptions:         macOpts,
		CaptureThresholdDB: captureDB,
		Seed:               seed,
		DurationSeconds:    duration,
		MeasureFromSeconds: warmup,
		SummaryOnly:        summaryOnly,
	}
	routed := 0
	for i := 0; i < nodes; i++ {
		if i == topo.Sink() || !topo.HasRoute(i) {
			continue
		}
		routed++
		sc.Traffic = append(sc.Traffic,
			qma.Traffic{Origin: i, Phases: []qma.Phase{{Rate: delta}}, StartSeconds: warmup})
	}
	runStart := time.Now()
	res, err := sc.Run()
	if err != nil {
		fmt.Fprintln(stderr, "qma-sim:", err)
		return 1
	}
	wall := time.Since(runStart)

	fmt.Fprintf(stdout, "factory hall    %d nodes (%d routed), built in %v\n", nodes, routed, buildWall.Round(time.Microsecond))
	fmt.Fprintf(stdout, "simulated       %.1fs under %s in %v\n", duration, mk, wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "events          %d (%.0f events/s wall clock)\n", res.Events, float64(res.Events)/wall.Seconds())
	fmt.Fprintf(stdout, "network PDR     %.3f   mean delay %.3fs\n", res.NetworkPDR, res.MeanDelaySeconds)
	return 0
}

// parseCells parses the -cells grid spec "XxY" ("" selects 4x4).
func parseCells(s string) (cx, cy int, err error) {
	if s == "" {
		return 4, 4, nil
	}
	xStr, yStr, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, fmt.Errorf("-cells wants XxY (e.g. 8x8), got %q", s)
	}
	if cx, err = strconv.Atoi(xStr); err != nil || cx < 1 {
		return 0, 0, fmt.Errorf("bad -cells x count %q", xStr)
	}
	if cy, err = strconv.Atoi(yStr); err != nil || cy < 1 {
		return 0, 0, fmt.Errorf("bad -cells y count %q", yStr)
	}
	return cx, cy, nil
}

// runMMTC drives the multi-cell sharded city and reports per-cell delivery
// plus the network-wide tails, boundary coupling and simulator throughput.
// Evaluation traffic starts at -warmup, like the -scale path.
func runMMTC(stdout, stderr io.Writer, nodes, cx, cy int, degree float64, mk qma.MAC, delta, duration, warmup float64, seed uint64, parallel int) int {
	sc := &qma.MMTCScenario{
		Nodes:           nodes,
		CellsX:          cx,
		CellsY:          cy,
		Degree:          degree,
		MAC:             mk,
		Seed:            seed,
		DurationSeconds: duration,
		Rate:            delta,
		StartSeconds:    warmup,
		Parallel:        parallel,
	}
	runStart := time.Now()
	res, err := sc.Run()
	if err != nil {
		fmt.Fprintln(stderr, "qma-sim:", err)
		return 1
	}
	wall := time.Since(runStart)

	routed := 0
	for i := range res.Cells {
		routed += res.Cells[i].Routed
	}
	fmt.Fprintf(stdout, "city            %d devices in %dx%d cells (%d routed, %d boundary links)\n",
		nodes, cx, cy, routed, res.BoundaryLinks)
	fmt.Fprintf(stdout, "simulated       %.1fs under %s in %v (build + run)\n", duration, mk, wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "events          %d (%.0f events/s wall clock)\n", res.Events, float64(res.Events)/wall.Seconds())
	if res.Truncated {
		fmt.Fprintln(stdout, "WARNING: at least one cell hit its event budget; results are truncated")
	}
	fmt.Fprintf(stdout, "network PDR     %.3f   mean delay %.3fs   p50/p95/p99 %.3f/%.3f/%.3fs\n",
		res.NetworkPDR, res.MeanDelaySeconds, res.DelayP50Seconds, res.DelayP95Seconds, res.DelayP99Seconds)
	fmt.Fprintf(stdout, "cross-cell      %.1f%% of transmissions mirrored into a neighbour cell\n\n", 100*res.CrossCellFraction)
	fmt.Fprintf(stdout, "%-6s %-7s %-7s %-6s %-9s %-8s %-9s %s\n", "cell", "nodes", "routed", "pdr", "delay[s]", "edge-tx", "foreign", "events")
	for _, c := range res.Cells {
		fmt.Fprintf(stdout, "%-6d %-7d %-7d %-6.3f %-9.3f %-8d %-9d %d\n",
			c.Cell, c.Nodes, c.Routed, c.PDR, c.MeanDelaySeconds, c.EdgeTx, c.ForeignBusy, c.Events)
	}
	return 0
}

func parseTopology(s string) (*qma.Topology, error) {
	switch s {
	case "hidden":
		return qma.HiddenNode(), nil
	case "tree":
		return qma.Tree10(), nil
	case "star":
		return qma.Star17(), nil
	}
	if strings.HasPrefix(s, "rings") {
		var k int
		if _, err := fmt.Sscanf(s, "rings%d", &k); err == nil {
			return qma.Rings(k)
		}
	}
	return nil, fmt.Errorf("unknown topology %q", s)
}

// macNames renders the registered protocol keys for the -mac usage string;
// the registry is the single source of truth, so new protocols appear here
// without CLI changes.
func macNames() string {
	var names []string
	for _, m := range qma.MACs() {
		names = append(names, string(m))
	}
	return strings.Join(names, " | ")
}

// kvFlag collects repeatable key=value flags into a map.
type kvFlag struct{ kv map[string]string }

func (f *kvFlag) String() string {
	var parts []string
	for k, v := range f.kv {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (f *kvFlag) Set(s string) error {
	key, value, ok := strings.Cut(s, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	if f.kv == nil {
		f.kv = make(map[string]string)
	}
	f.kv[key] = value
	return nil
}

// faultFlags aggregates the repeatable -fault-* flags into a qma.Faults
// script. Each flag value is a compact spec; the flag package prefixes any
// Set error with the flag's name, so bad specs always name their flag.
type faultFlags struct {
	outages    outageFlag
	reboots    rebootFlag
	ackCorrupt windowFlag
	beaconLoss beaconLossFlag
}

func (f *faultFlags) enabled() bool {
	return len(f.outages.v) > 0 || len(f.reboots.v) > 0 ||
		len(f.ackCorrupt.v) > 0 || len(f.beaconLoss.v) > 0
}

func (f *faultFlags) build() *qma.Faults {
	return &qma.Faults{
		Outages:       f.outages.v,
		Reboots:       f.reboots.v,
		AckCorruption: f.ackCorrupt.v,
		BeaconLoss:    f.beaconLoss.v,
	}
}

// parseNodeAt splits "NODE@REST" and parses the node id.
func parseNodeAt(s string) (node int, rest string, err error) {
	nodeStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return 0, "", fmt.Errorf("want NODE@..., got %q", s)
	}
	node, err = strconv.Atoi(nodeStr)
	if err != nil {
		return 0, "", fmt.Errorf("bad node id %q", nodeStr)
	}
	return node, rest, nil
}

// parseWindow parses "AT+DUR" in seconds.
func parseWindow(s string) (at, dur float64, err error) {
	atStr, durStr, ok := strings.Cut(s, "+")
	if !ok {
		return 0, 0, fmt.Errorf("want AT+DUR, got %q", s)
	}
	if at, err = strconv.ParseFloat(atStr, 64); err != nil {
		return 0, 0, fmt.Errorf("bad start %q", atStr)
	}
	if dur, err = strconv.ParseFloat(durStr, 64); err != nil {
		return 0, 0, fmt.Errorf("bad duration %q", durStr)
	}
	return at, dur, nil
}

type outageFlag struct{ v []qma.Outage }

func (f *outageFlag) String() string { return fmt.Sprintf("%v", f.v) }
func (f *outageFlag) Set(s string) error {
	spec, beacons := s, false
	if rest, ok := strings.CutSuffix(spec, "+beacons"); ok {
		spec, beacons = rest, true
	}
	node, rest, err := parseNodeAt(spec)
	if err != nil {
		return err
	}
	at, dur, err := parseWindow(rest)
	if err != nil {
		return err
	}
	f.v = append(f.v, qma.Outage{Node: node, AtSeconds: at, ForSeconds: dur, StopBeacons: beacons})
	return nil
}

type rebootFlag struct{ v []qma.RebootEvent }

func (f *rebootFlag) String() string { return fmt.Sprintf("%v", f.v) }
func (f *rebootFlag) Set(s string) error {
	node, rest, err := parseNodeAt(s)
	if err != nil {
		return err
	}
	at, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return fmt.Errorf("bad instant %q", rest)
	}
	f.v = append(f.v, qma.RebootEvent{Node: node, AtSeconds: at})
	return nil
}

type windowFlag struct{ v []qma.AckCorruption }

func (f *windowFlag) String() string { return fmt.Sprintf("%v", f.v) }
func (f *windowFlag) Set(s string) error {
	at, dur, err := parseWindow(s)
	if err != nil {
		return err
	}
	f.v = append(f.v, qma.AckCorruption{AtSeconds: at, ForSeconds: dur})
	return nil
}

type beaconLossFlag struct{ v []qma.BeaconLoss }

func (f *beaconLossFlag) String() string { return fmt.Sprintf("%v", f.v) }
func (f *beaconLossFlag) Set(s string) error {
	node, rest, err := parseNodeAt(s)
	if err != nil {
		return err
	}
	at, dur, err := parseWindow(rest)
	if err != nil {
		return err
	}
	f.v = append(f.v, qma.BeaconLoss{Node: node, AtSeconds: at, ForSeconds: dur})
	return nil
}
