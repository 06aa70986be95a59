package experiments

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
)

func init() {
	register("dynamics", RunDynamics)
}

// The dynamics experiment family exercises the regime the paper's §6.1.2
// adaptability argument is about but the frozen-channel figures never test:
// how fast each MAC returns to its pre-disturbance delivery ratio after the
// channel or the topology changes under it. Three disturbances are
// measured: a deterministic deep fade at the sink (burst-fade), a relay
// node failing and rejoining (node churn), and a stochastic Gilbert–Elliott
// burst-error channel.

// dynBucketWidth is the windowed-PDR resolution. Packets are bucketed by
// generation instant; a bucket's PDR is delivered/generated.
const dynBucketWidth = 2 * sim.Second

// dynTrace accumulates the per-bucket generated/delivered counts of one run
// through the scenario's OnEvalGenerate/OnEvalDeliver hooks, plus the raw
// end-to-end delay of every delivered evaluation packet for percentile
// reporting (p50/p95/p99 in the faults and overload tables). The hooks are
// purely observational — they draw no randomness and schedule no events —
// so attaching a trace never perturbs the simulation.
type dynTrace struct {
	gen, del []float64
	delay    stats.Sample
}

func newDynTrace(duration sim.Time) *dynTrace {
	n := int(duration/dynBucketWidth) + 1
	return &dynTrace{gen: make([]float64, n), del: make([]float64, n)}
}

func (d *dynTrace) bucket(at sim.Time) int {
	b := int(at / dynBucketWidth)
	if b >= len(d.gen) {
		b = len(d.gen) - 1
	}
	return b
}

// pdr reports the delivery ratio of bucket b (1 when nothing was generated,
// mirroring NodeResult.PDR).
func (d *dynTrace) pdr(b int) float64 {
	if d.gen[b] == 0 {
		return 1
	}
	return d.del[b] / d.gen[b]
}

// hooks returns the scenario callbacks filling the trace.
func (d *dynTrace) hooks() (func(frame.NodeID, sim.Time), func(frame.NodeID, sim.Time, sim.Time)) {
	return func(_ frame.NodeID, at sim.Time) { d.gen[d.bucket(at)]++ },
		func(_ frame.NodeID, createdAt, at sim.Time) {
			d.del[d.bucket(createdAt)]++
			d.delay.Add((at - createdAt).Seconds())
		}
}

// delayQuantile reports the q-quantile of the delivered packets' end-to-end
// delays in seconds (0 when nothing was delivered, keeping aggregation
// NaN-free).
func (d *dynTrace) delayQuantile(q float64) float64 {
	if d.delay.N() == 0 {
		return 0
	}
	return d.delay.Quantile(q)
}

// disturbanceMetrics condenses one run into the family's four headline
// numbers. All times are seconds.
type disturbanceMetrics struct {
	// baseline is the mean windowed PDR over the settled pre-disturbance
	// interval.
	baseline float64
	// convergence is the time from evaluation-traffic start until the
	// windowed PDR first holds ≥ 90% of baseline for two consecutive
	// buckets (how fast the MAC reaches its steady state).
	convergence float64
	// lost counts the packets generated from disturbance start until
	// recovery that never reached the sink.
	lost float64
	// recovery is the time from disturbance end until the windowed PDR
	// again holds ≥ 90% of baseline for two consecutive buckets. Runs that
	// never recover report the remaining run length (a lower bound).
	recovery float64
}

// stableFrom returns the start instant of the first bucket beginning at or
// after from whose PDR and successor's PDR both reach threshold, or -1.
// Only buckets that start at or after from count: a disturbance ending
// mid-bucket must not let its own bucket (which mixes in-disturbance
// traffic) satisfy the criterion, and the returned instant is never
// before from.
func (d *dynTrace) stableFrom(from sim.Time, until sim.Time, threshold float64) sim.Time {
	first := int((from + dynBucketWidth - 1) / dynBucketWidth)
	last := d.bucket(until)
	for b := first; b+1 <= last; b++ {
		if d.pdr(b) >= threshold && d.pdr(b+1) >= threshold {
			return sim.Time(b) * dynBucketWidth
		}
	}
	return -1
}

// analyze computes the disturbanceMetrics for a trace with evaluation
// traffic from evalStart, a disturbance window [distStart, distEnd) and a
// run ending at duration. The baseline is measured over the settled second
// half of the pre-disturbance interval.
func (d *dynTrace) analyze(evalStart, distStart, distEnd, duration sim.Time) disturbanceMetrics {
	var m disturbanceMetrics
	settleFrom := evalStart + (distStart-evalStart)/2
	n := 0
	for b := d.bucket(settleFrom); b < d.bucket(distStart); b++ {
		m.baseline += d.pdr(b)
		n++
	}
	if n > 0 {
		m.baseline /= float64(n)
	}
	threshold := 0.9 * m.baseline

	if at := d.stableFrom(evalStart, distStart, threshold); at >= 0 {
		m.convergence = (at - evalStart).Seconds()
	} else {
		m.convergence = (distStart - evalStart).Seconds()
	}

	recoveredAt := d.stableFrom(distEnd, duration, threshold)
	if recoveredAt < 0 {
		recoveredAt = duration
	}
	m.recovery = (recoveredAt - distEnd).Seconds()
	for b := d.bucket(distStart); b < d.bucket(recoveredAt) && b < len(d.gen); b++ {
		m.lost += d.gen[b] - d.del[b]
	}
	return m
}

// dynMACs are the channel access schemes the family compares.
func dynMACs() []mac.Name {
	return []mac.Name{scenario.QMA, scenario.CSMASlotted, scenario.CSMAUnslotted}
}

// burstFadeCase runs the hidden-node scenario with a deep fade at the sink:
// management traffic from t≈0, δ=10 evaluation traffic from warmup, the
// sink unreachable for 5 s mid-run.
func burstFadeCase(mk mac.Name, mode Mode, seed uint64) map[string]float64 {
	warmup := mode.Warmup
	fadeStart := warmup + 80*sim.Second
	fadeLen := 5 * sim.Second
	duration := fadeStart + fadeLen + 60*sim.Second
	cfg := streamFor(hiddenNodeConfig(mk, 10, mode, seed), duration)
	cfg.Dynamics.Fades = []scenario.FadeSpec{{Node: 1, At: fadeStart, Duration: fadeLen}}
	trace := newDynTrace(duration)
	cfg.OnEvalGenerate, cfg.OnEvalDeliver = trace.hooks()
	scenario.Run(cfg)
	m := trace.analyze(warmup, fadeStart, fadeStart+fadeLen, duration)
	return map[string]float64{
		"baseline": m.baseline, "convergence": m.convergence,
		"lost": m.lost, "recovery": m.recovery,
	}
}

// relayFailureCase runs the testbed tree with its depth-1 relay (paper node
// 18, dense id 1) leaving for 10 s and rejoining: two thirds of the origins
// lose their route while it is away.
func relayFailureCase(mk mac.Name, mode Mode, seed uint64) map[string]float64 {
	cfg := testbedConfig(topo.Tree10(), mk, mode, seed)
	warmup := cfg.MeasureFrom
	leaveAt := warmup + 60*sim.Second
	awayFor := 10 * sim.Second
	duration := leaveAt + awayFor + 60*sim.Second
	cfg = streamFor(cfg, duration)
	cfg.Dynamics.Churn = []scenario.ChurnSpec{
		{Node: 1, At: leaveAt, Leave: true},
		{Node: 1, At: leaveAt + awayFor, Leave: false},
	}
	trace := newDynTrace(duration)
	cfg.OnEvalGenerate, cfg.OnEvalDeliver = trace.hooks()
	scenario.Run(cfg)
	m := trace.analyze(warmup, leaveAt, leaveAt+awayFor, duration)
	return map[string]float64{
		"baseline": m.baseline, "convergence": m.convergence,
		"lost": m.lost, "recovery": m.recovery,
	}
}

// gilbertCase runs the hidden-node scenario over a bursty Gilbert–Elliott
// channel (mean 8 s good / 0.4 s bad, bad state losing every frame) and
// reports how much delivery ratio each MAC retains relative to dynamics-off.
func gilbertCase(mk mac.Name, mode Mode, seed uint64, bursty bool) map[string]float64 {
	warmup := mode.Warmup
	duration := warmup + 120*sim.Second
	cfg := streamFor(hiddenNodeConfig(mk, 10, mode, seed), duration)
	if bursty {
		cfg.Dynamics.Gilbert = radio.GilbertElliott{
			MeanGood: 8 * sim.Second,
			MeanBad:  400 * sim.Millisecond,
			LossBad:  1,
		}
	}
	res := scenario.Run(cfg)
	return map[string]float64{"pdr": res.NetworkPDR(), "delay": res.MeanDelay()}
}

// RunDynamics regenerates the dynamics family: burst-fade recovery, relay
// churn recovery and Gilbert–Elliott degradation for QMA and the CSMA/CA
// baselines.
func RunDynamics(mode Mode) []*Table {
	macs := dynMACs()

	fade := &Table{
		ID:      "Dyn. 1",
		Title:   "burst fade at the hidden-node sink (δ=10, 5 s blackout): convergence and recovery",
		Columns: []string{"MAC", "baseline PDR", "convergence [s]", "lost packets", "recovery [s]"},
	}
	churn := &Table{
		ID:      "Dyn. 2",
		Title:   "relay failure in the testbed tree (node 18 away for 10 s): convergence and recovery",
		Columns: []string{"MAC", "baseline PDR", "convergence [s]", "lost packets", "recovery [s]"},
	}
	ge := &Table{
		ID:      "Dyn. 3",
		Title:   "Gilbert–Elliott burst channel on the hidden-node scenario (8 s good / 0.4 s bad, δ=10)",
		Columns: []string{"MAC", "static PDR", "bursty PDR", "static delay [s]", "bursty delay [s]"},
	}

	// Cell layout: per MAC, four independent runs — fade, churn, GE-off,
	// GE-on — all sharded over one pool.
	const cases = 4
	ests, repErrs := stats.ReplicateGrid(len(macs)*cases, mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			mk := macs[cell/cases]
			switch cell % cases {
			case 0:
				return burstFadeCase(mk, mode, seed)
			case 1:
				return relayFailureCase(mk, mode, seed)
			case 2:
				return gilbertCase(mk, mode, seed, false)
			default:
				return gilbertCase(mk, mode, seed, true)
			}
		})
	for mi, mk := range macs {
		f := ests[mi*cases+0]
		c := ests[mi*cases+1]
		g0 := ests[mi*cases+2]
		g1 := ests[mi*cases+3]
		fade.AddRow(mk.String(),
			ci(f["baseline"].Mean, f["baseline"].CI),
			ci(f["convergence"].Mean, f["convergence"].CI),
			ci(f["lost"].Mean, f["lost"].CI),
			ci(f["recovery"].Mean, f["recovery"].CI))
		churn.AddRow(mk.String(),
			ci(c["baseline"].Mean, c["baseline"].CI),
			ci(c["convergence"].Mean, c["convergence"].CI),
			ci(c["lost"].Mean, c["lost"].CI),
			ci(c["recovery"].Mean, c["recovery"].CI))
		ge.AddRow(mk.String(),
			ci(g0["pdr"].Mean, g0["pdr"].CI),
			ci(g1["pdr"].Mean, g1["pdr"].CI),
			f3(g0["delay"].Mean),
			f3(g1["delay"].Mean))
	}
	note := fmt.Sprintf("windowed PDR over %g s buckets by generation instant; convergence/recovery = first two consecutive buckets at ≥90%% of the MAC's own settled baseline; recovery is censored at run end", dynBucketWidth.Seconds())
	fade.Notes = append(fade.Notes, note,
		"expectation: QMA's learned schedule drains the post-fade backlog without hidden-node collisions, so it recovers faster than CSMA/CA")
	churn.Notes = append(churn.Notes, note,
		"while node 18 is away, two thirds of the origins have no route; leave/rejoin re-classifies links incrementally (O(degree))")
	ge.Notes = append(ge.Notes,
		"the burst channel fails whole handshakes at once (symmetric per-link state), which CSMA/CA answers with blind retries while QMA's punishments shift its policy")
	noteRepErrors(fade, repErrs)
	return []*Table{fade, churn, ge}
}
