package experiments

import (
	"fmt"

	"qma/internal/aloha"
	"qma/internal/bandit"
	"qma/internal/faults"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
)

func init() {
	register("faults", RunFaults)
}

// The faults experiment family measures what the robustness line of work
// (PAPERS.md) actually asks of a learned MAC: when the infrastructure itself
// fails — the sink goes dark, a node loses its Q-table to a power cycle, the
// ACK path corrupts — how much does the learned schedule cost or save
// relative to the memoryless baselines? It reuses the windowed-PDR machinery
// of the dynamics family (dynTrace/analyze) and compares QMA against
// CSMA/CA, slotted ALOHA and the slot bandit. Every case is the hidden-node
// run streaming δ=10 evaluation traffic, the fault striking at warmup+80 s.

// faultMACs spans the learning spectrum: QMA (full Q-learning), the slot
// bandit (stateful but simpler), and two memoryless baselines for which a
// reboot wipes nothing of value.
func faultMACs() []mac.Name {
	return []mac.Name{
		scenario.QMA, scenario.CSMAUnslotted,
		aloha.ProtoSlotted, bandit.Proto,
	}
}

// windowPDR reports the aggregate delivery ratio of the packets generated in
// [from, until) — the "PDR through the outage" headline number.
func (d *dynTrace) windowPDR(from, until sim.Time) float64 {
	var gen, del float64
	for b := d.bucket(from); b < d.bucket(until) && b < len(d.gen); b++ {
		gen += d.gen[b]
		del += d.del[b]
	}
	if gen == 0 {
		return 1
	}
	return del / gen
}

// sinkOutageCase takes the sink off the air for 5 s with its beacons: the
// senders can neither deliver nor stay synchronized. Everything they
// generate during the window is lost or queued; the metrics capture how fast
// each MAC drains the backlog once the sink returns.
func sinkOutageCase(mk mac.Name, mode Mode, seed uint64) map[string]float64 {
	warmup := mode.Warmup
	at := warmup + 80*sim.Second
	const dur = 5 * sim.Second
	duration := at + dur + 60*sim.Second
	cfg := streamFor(hiddenNodeConfig(mk, 10, mode, seed), duration)
	cfg.Faults = faults.Schedule{
		Outages: []faults.Outage{{Node: 1, At: at, Duration: dur, StopBeacons: true}},
	}
	trace := newDynTrace(duration)
	cfg.OnEvalGenerate, cfg.OnEvalDeliver = trace.hooks()
	res := scenario.Run(cfg)
	m := trace.analyze(warmup, at, at+dur, duration)
	var suppressed float64
	for _, n := range res.Nodes {
		suppressed += float64(n.MAC.FaultTxSuppressed)
	}
	return map[string]float64{
		"baseline": m.baseline, "outagePdr": trace.windowPDR(at, at+dur),
		"lost": m.lost, "recovery": m.recovery, "suppressed": suppressed,
		"delayP95": trace.delayQuantile(0.95), "delayP99": trace.delayQuantile(0.99),
	}
}

// rebootCase power-cycles sender A mid-run: its Q-table, policy and backoff
// state vanish and it re-enters cautious startup. The lost/recovery columns
// are the relearning cost — for the memoryless baselines the reboot only
// drops the queue.
func rebootCase(mk mac.Name, mode Mode, seed uint64) map[string]float64 {
	warmup := mode.Warmup
	at := warmup + 80*sim.Second
	duration := at + 60*sim.Second
	cfg := streamFor(hiddenNodeConfig(mk, 10, mode, seed), duration)
	cfg.Faults = faults.Schedule{Reboots: []faults.Reboot{{Node: 0, At: at}}}
	trace := newDynTrace(duration)
	cfg.OnEvalGenerate, cfg.OnEvalDeliver = trace.hooks()
	scenario.Run(cfg)
	// The disturbance is instantaneous: recovery is measured from the reboot.
	m := trace.analyze(warmup, at, at, duration)
	return map[string]float64{
		"baseline": m.baseline, "lost": m.lost, "recovery": m.recovery,
	}
}

// ackCorruptionCase corrupts every ACK on the air for 5 s: data still gets
// through, but every transmitter sees timeouts, retries and (for the
// learners) punishments for subslots that did nothing wrong.
func ackCorruptionCase(mk mac.Name, mode Mode, seed uint64) map[string]float64 {
	warmup := mode.Warmup
	at := warmup + 80*sim.Second
	const dur = 5 * sim.Second
	duration := at + dur + 60*sim.Second
	cfg := streamFor(hiddenNodeConfig(mk, 10, mode, seed), duration)
	cfg.Faults = faults.Schedule{AckCorruption: []faults.Window{{At: at, Duration: dur}}}
	trace := newDynTrace(duration)
	cfg.OnEvalGenerate, cfg.OnEvalDeliver = trace.hooks()
	res := scenario.Run(cfg)
	m := trace.analyze(warmup, at, at+dur, duration)
	var corrupted float64
	for _, n := range res.Nodes {
		corrupted += float64(n.MAC.AcksCorrupted)
	}
	return map[string]float64{
		"baseline": m.baseline, "windowPdr": trace.windowPDR(at, at+dur),
		"lost": m.lost, "recovery": m.recovery, "corrupted": corrupted,
	}
}

// RunFaults regenerates the fault-injection family: sink outage with beacon
// loss, node reboot (Q-state loss) and ACK corruption, for QMA and the
// baselines.
func RunFaults(mode Mode) []*Table {
	macs := faultMACs()

	outage := &Table{
		ID:      "Flt. 1",
		Title:   "sink outage on the hidden-node pair (5 s, beacons stopped): delivery through and after the blackout",
		Columns: []string{"MAC", "baseline PDR", "outage PDR", "lost packets", "recovery [s]", "suppressed TX", "delay p95 [s]", "delay p99 [s]"},
	}
	reboot := &Table{
		ID:      "Flt. 2",
		Title:   "sender reboot on the hidden-node pair (Q-state wiped at t=warmup+80s): relearning cost",
		Columns: []string{"MAC", "baseline PDR", "lost packets", "recovery [s]"},
	}
	ack := &Table{
		ID:      "Flt. 3",
		Title:   "global ACK corruption on the hidden-node pair (5 s): the asymmetric-failure mode",
		Columns: []string{"MAC", "baseline PDR", "window PDR", "lost packets", "recovery [s]", "ACKs corrupted"},
	}

	// Cell layout: per MAC, three independent fault runs sharded over one pool.
	const cases = 3
	ests, repErrs := stats.ReplicateGrid(len(macs)*cases, mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			mk := macs[cell/cases]
			switch cell % cases {
			case 0:
				return sinkOutageCase(mk, mode, seed)
			case 1:
				return rebootCase(mk, mode, seed)
			default:
				return ackCorruptionCase(mk, mode, seed)
			}
		})
	for mi, mk := range macs {
		o := ests[mi*cases+0]
		r := ests[mi*cases+1]
		a := ests[mi*cases+2]
		outage.AddRow(mk.String(),
			ci(o["baseline"].Mean, o["baseline"].CI),
			ci(o["outagePdr"].Mean, o["outagePdr"].CI),
			ci(o["lost"].Mean, o["lost"].CI),
			ci(o["recovery"].Mean, o["recovery"].CI),
			f2(o["suppressed"].Mean),
			f3(o["delayP95"].Mean),
			f3(o["delayP99"].Mean))
		reboot.AddRow(mk.String(),
			ci(r["baseline"].Mean, r["baseline"].CI),
			ci(r["lost"].Mean, r["lost"].CI),
			ci(r["recovery"].Mean, r["recovery"].CI))
		ack.AddRow(mk.String(),
			ci(a["baseline"].Mean, a["baseline"].CI),
			ci(a["windowPdr"].Mean, a["windowPdr"].CI),
			ci(a["lost"].Mean, a["lost"].CI),
			ci(a["recovery"].Mean, a["recovery"].CI),
			f2(a["corrupted"].Mean))
	}
	note := fmt.Sprintf("windowed PDR over %g s buckets by generation instant; recovery = first two consecutive buckets at ≥90%% of the MAC's own settled baseline after the fault clears, censored at run end", dynBucketWidth.Seconds())
	outage.Notes = append(outage.Notes, note,
		"suppressed TX counts transmissions the down/desynced radios swallowed; with beacons stopped the senders stand down too, so the backlog drains only after resync",
		"expectation: QMA's learned schedule survives the outage — its policy is still valid when the sink returns — while the bandit must re-earn its slot")
	reboot.Notes = append(reboot.Notes,
		"the reboot wipes Q-tables, bandit estimates, backoff and queue; cautious startup then throttles the rebooted sender",
		"relearning cost = lost + recovery relative to the memoryless CSMA/ALOHA rows, for which a reboot only drops the queue")
	ack.Notes = append(ack.Notes,
		"data frames still decode during the window — only the ACK path fails — so every 'lost' packet here was actually delivered at least once and dropped later by retry exhaustion, or survived as a duplicate",
		"the learners additionally take punishments for subslots that did nothing wrong; recovery shows whether that poisons the policy")
	noteRepErrors(outage, repErrs)
	return []*Table{outage, reboot, ack}
}
