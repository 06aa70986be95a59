package experiments

import (
	"fmt"

	"qma/internal/barring"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/stats"
)

func init() {
	register("overload", RunOverload)
}

// The overload experiment family answers the robustness question none of the
// fixed-load figures ask: what happens when the offered load exceeds what
// the channel can carry, and does sink-side access-class barring buy
// graceful degradation? Every registered (capture-less) protocol runs an
// offered-load sweep from well below to far beyond the saturation knee, with
// and without the AIMD barring controller, reporting throughput, delay
// percentiles, Jain's fairness across origins and a plateau-vs-collapse
// stability verdict.

// overloadRetention is the plateau criterion: a protocol degrades gracefully
// when its throughput at 3x load keeps at least this fraction of its 1x
// value; anything below is a congestion collapse.
const overloadRetention = 0.75

// overloadMults are the offered-load grids of the sweep in multiples of each
// baselineCases topology's δ, in that order: the baselines family's
// operating points are the 1x loads.
var overloadMults = [][]float64{{0.2, 1, 2, 3, 4}, {1, 3}, {1, 3}}

// overloadBarrings are the access-control variants under comparison: no
// barring (the zero config — byte-identical to a pre-barring build) and the
// AIMD controller at its defaults.
func overloadBarrings() []struct {
	name string
	cfg  barring.Config
} {
	return []struct {
		name string
		cfg  barring.Config
	}{
		{"off", barring.Config{}},
		{"aimd", barring.Config{Policy: barring.PolicyAIMD}},
	}
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²) over the per-origin
// delivered counts: 1 when every origin gets an equal share, →1/n when one
// origin starves the rest. Degenerate inputs (no origins, nothing delivered)
// report 1.
func jainIndex(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if len(xs) == 0 || sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// runOverloadCell executes one (topology, protocol, barring, mult) run and
// condenses it into the family's metrics.
func runOverloadCell(c baselineCase, mk mac.Name, bar barring.Config, mult float64, mode Mode, seed uint64) map[string]float64 {
	cfg := baselineConfig(c, mk, mult, mode, seed)
	cfg.Barring = bar
	trace := newDynTrace(cfg.Duration)
	cfg.OnEvalGenerate, cfg.OnEvalDeliver = trace.hooks()
	res := scenario.Run(cfg)

	window := (cfg.Duration - mode.Warmup).Seconds()
	var delivered, barred, deadlineDrops float64
	var perOrigin []float64
	for i := range res.Nodes {
		n := &res.Nodes[i]
		delivered += float64(n.Delivered)
		barred += float64(n.MAC.Barred)
		deadlineDrops += float64(n.MAC.DeadlineDrops)
		if n.Generated > 0 {
			perOrigin = append(perOrigin, float64(n.Delivered))
		}
	}
	return map[string]float64{
		"thr":      delivered / window,
		"p50":      trace.delayQuantile(0.50),
		"p95":      trace.delayQuantile(0.95),
		"p99":      trace.delayQuantile(0.99),
		"jain":     jainIndex(perOrigin),
		"barred":   barred,
		"deadline": deadlineDrops,
	}
}

// overloadCell addresses one grid point.
type overloadCell struct {
	caseIdx, macIdx, barIdx, multIdx int
}

// RunOverload regenerates the overload family: an offered-load sweep
// (0.2x-4x of each topology's baseline operating point) for every registered
// capture-less protocol, with and without AIMD access-class barring. One
// table per topology plus a cross-topology stability-verdict table.
func RunOverload(mode Mode) []*Table {
	cases := baselineCases()
	macs := baselineMACs()
	bars := overloadBarrings()

	var cells []overloadCell
	for ci := range cases {
		for mi := range macs {
			for bi := range bars {
				for li := range overloadMults[ci] {
					cells = append(cells, overloadCell{ci, mi, bi, li})
				}
			}
		}
	}
	ests, repErrs := stats.ReplicateGrid(len(cells), mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			cl := cells[cell]
			return runOverloadCell(cases[cl.caseIdx], macs[cl.macIdx], bars[cl.barIdx].cfg, overloadMults[cl.caseIdx][cl.multIdx], mode, seed)
		})
	at := func(cl overloadCell) map[string]stats.Estimate {
		for i, c := range cells {
			if c == cl {
				return ests[i]
			}
		}
		panic("overload: unknown cell")
	}

	var tables []*Table
	for ci, c := range cases {
		t := &Table{
			ID:    "Ovl. " + c.name,
			Title: fmt.Sprintf("offered-load sweep on %s (1x = δ=%g pkt/s per source), without and with AIMD barring", c.name, c.delta),
			Columns: []string{
				"protocol", "load", "thr off [pkt/s]", "thr aimd [pkt/s]",
				"delay p50/p95/p99 off [s]", "delay p50/p95/p99 aimd [s]",
				"Jain off", "Jain aimd", "barred",
			},
		}
		for mi, mk := range macs {
			for li, mult := range overloadMults[ci] {
				off := at(overloadCell{ci, mi, 0, li})
				on := at(overloadCell{ci, mi, 1, li})
				t.AddRow(mk.String(), fmt.Sprintf("%gx", mult),
					f2(off["thr"].Mean), f2(on["thr"].Mean),
					fmt.Sprintf("%s/%s/%s", f3(off["p50"].Mean), f3(off["p95"].Mean), f3(off["p99"].Mean)),
					fmt.Sprintf("%s/%s/%s", f3(on["p50"].Mean), f3(on["p95"].Mean), f3(on["p99"].Mean)),
					f3(off["jain"].Mean), f3(on["jain"].Mean),
					f2(on["barred"].Mean))
			}
		}
		t.Notes = append(t.Notes,
			"thr = delivered evaluation packets per second of the whole measurement window; the load multiplier scales the Poisson rate over a fixed generation window, so overload is sustained",
			"barring defers fresh channel-access attempts on a failed Bernoulli(p) draw; the AIMD controller halves p when the sink's observed collision ratio exceeds 0.1 and reopens additively")
		if ci == 0 {
			noteRepErrors(t, repErrs)
		}
		tables = append(tables, t)
	}

	verdict := &Table{
		ID:    "Ovl. verdict",
		Title: fmt.Sprintf("stability verdict: plateau = throughput at 3x load retains ≥%g%% of its 1x value, collapse otherwise", overloadRetention*100),
		Columns: []string{
			"topology", "protocol", "thr 1x→3x off", "verdict off", "thr 1x→3x aimd", "verdict aimd",
		},
	}
	judge := func(thr1, thr3 float64) string {
		if thr3 >= overloadRetention*thr1 {
			return "plateau"
		}
		return "collapse"
	}
	for ci, c := range cases {
		li1, li3 := -1, -1
		for li, m := range overloadMults[ci] {
			if m == 1 {
				li1 = li
			}
			if m == 3 {
				li3 = li
			}
		}
		if li1 < 0 || li3 < 0 {
			continue
		}
		for mi, mk := range macs {
			off1 := at(overloadCell{ci, mi, 0, li1})["thr"].Mean
			off3 := at(overloadCell{ci, mi, 0, li3})["thr"].Mean
			on1 := at(overloadCell{ci, mi, 1, li1})["thr"].Mean
			on3 := at(overloadCell{ci, mi, 1, li3})["thr"].Mean
			verdict.AddRow(c.name, mk.String(),
				fmt.Sprintf("%s→%s", f2(off1), f2(off3)), judge(off1, off3),
				fmt.Sprintf("%s→%s", f2(on1), f2(on3)), judge(on1, on3))
		}
	}
	verdict.Notes = append(verdict.Notes,
		"graceful degradation = the aimd column plateaus where the off column collapses: barring trades individual access latency for aggregate stability")
	tables = append(tables, verdict)
	return tables
}
