package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"qma/internal/dsme"
	"qma/internal/experiments"
	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// workload is one benchmark input set, generated from the seed.
type workload interface {
	// setup builds the topology and assembles the scenario once (without
	// simulating), reporting how long each part took in seconds.
	setup() (topoS, scenarioS float64)
	// rep runs the measured unit of work once and returns its simulated
	// counters; an error means the output was wrong.
	rep() (outcome, error)
	// workers is the number of worker threads the rep runs on.
	workers() int
	// params describes the inputs for the provenance record.
	params() map[string]any
}

// outcome is the simulated result of one rep. Reps of one seed must agree
// exactly, and so must a traced rep and an untraced one.
type outcome struct {
	Events, Generated, Delivered uint64
	DelaySum                     sim.Time
	Radio                        radio.NodeStats
	TxAttempts, TxSuccess        uint64
	ForeignBusy                  uint64
	CellEvents                   []uint64
	Truncated                    bool
	PDR, DelayMS                 float64
}

// check is the per-rep correctness rule shared by every workload.
func (o *outcome) check() error {
	switch {
	case o.Events == 0:
		return fmt.Errorf("no kernel events processed")
	case o.Truncated:
		return fmt.Errorf("run truncated by its event or wall budget")
	case o.Delivered > o.Generated:
		return fmt.Errorf("delivered %d packets but generated only %d", o.Delivered, o.Generated)
	case o.TxSuccess == 0:
		return fmt.Errorf("no data transmission succeeded in %d attempts", o.TxAttempts)
	}
	return nil
}

func seconds(t time.Time) float64 { return time.Since(t).Seconds() }

// hall is the monolithic N=10k factory hall under QMA with the float64
// Q-table: one kernel holding 10k nodes of Q-state.
type hall struct {
	seed uint64
	net  *topo.Network
}

// topoSeed places the hall's and the city's devices. The deployment is part
// of the workload's definition; --seed drives the simulation's random
// streams.
const topoSeed = 42

const (
	hallNodes = 10000
	hallRate  = 0.2 // pkt/s from every routed node
	hallSim   = 5 * sim.Second
)

func (h *hall) workers() int { return 1 }

func (h *hall) params() map[string]any {
	return map[string]any{"nodes": hallNodes, "rate_pkt_s": hallRate, "sim_s": hallSim.Seconds(), "mac": "qma", "table": "float64"}
}

func (h *hall) config(d sim.Time) scenario.Config {
	cfg := scenario.Config{
		Network:  h.net,
		MAC:      scenario.QMA,
		QMA:      scenario.QMAOptions{Table: scenario.TableFloat},
		Seed:     h.seed,
		Duration: d,
	}
	for i := 0; i < h.net.NumNodes(); i++ {
		id := frame.NodeID(i)
		if id == h.net.Sink || h.net.Depth(id) < 0 {
			continue
		}
		cfg.Traffic = append(cfg.Traffic, scenario.TrafficSpec{Origin: id, Phases: []traffic.Phase{{Rate: hallRate}}})
	}
	return cfg
}

func (h *hall) setup() (float64, float64) {
	t := time.Now()
	h.net = topo.FactoryHall(topo.FactoryConfig{Nodes: hallNodes, Seed: topoSeed})
	topoS := seconds(t)
	t = time.Now()
	scenario.Run(h.config(sim.Microsecond))
	return topoS, seconds(t)
}

func (h *hall) rep() (outcome, error) {
	res := scenario.Run(h.config(hallSim))
	o := outcome{Events: res.Events, Truncated: res.Truncated, PDR: res.NetworkPDR(), DelayMS: 1000 * res.MeanDelay()}
	for i := range res.Nodes {
		n := &res.Nodes[i]
		o.Generated += n.Generated
		o.Delivered += n.Delivered
		o.DelaySum += n.DelaySum
		o.Radio.Accumulate(n.Radio)
	}
	return o, nil
}

// city is the sharded 20k-device city on a 4×4 grid whose cell 5 holds a
// hotspot of 30% of the devices, run on the dependency scheduler.
type city struct {
	seed     uint64
	parallel int
	c        *topo.City
	last     *scenario.ShardedResult
}

const (
	cityNodes    = 20000
	cityRate     = 0.03 // pkt/s per device
	cityStart    = 2 * sim.Second
	citySim      = 15 * sim.Second
	cityParallel = 2
)

func (c *city) workers() int { return c.parallel }

func (c *city) params() map[string]any {
	return map[string]any{"nodes": cityNodes, "cells": "4x4", "hotspot_cell": 5, "hotspot_fraction": 0.3,
		"rate_pkt_s": cityRate, "start_s": cityStart.Seconds(), "sim_s": citySim.Seconds(), "parallel": c.parallel}
}

func (c *city) config(d sim.Time) scenario.ShardedConfig {
	return scenario.ShardedConfig{City: c.c, MAC: scenario.QMA, Seed: c.seed, Duration: d,
		Rate: cityRate, StartAt: cityStart, Parallel: c.parallel}
}

func (c *city) setup() (float64, float64) {
	t := time.Now()
	c.c = topo.NewCity(topo.CityConfig{Nodes: cityNodes, CellsX: 4, CellsY: 4, Seed: topoSeed,
		HotspotCell: 5, HotspotFraction: 0.3})
	topoS := seconds(t)
	t = time.Now()
	scenario.RunSharded(c.config(sim.Microsecond))
	return topoS, seconds(t)
}

func (c *city) rep() (outcome, error) {
	res := scenario.RunSharded(c.config(citySim))
	c.last = res
	o := outcome{Events: res.Events, Truncated: res.Truncated, PDR: res.NetworkPDR(), DelayMS: 1000 * res.MeanDelay()}
	for i := range res.Cells {
		cr := &res.Cells[i]
		o.Generated += cr.Generated
		o.Delivered += cr.Delivered
		o.DelaySum += cr.DelaySum
		o.Radio.Accumulate(cr.Radio)
		o.ForeignBusy += cr.ForeignBusy
		o.CellEvents = append(o.CellEvents, cr.Events)
	}
	return o, nil
}

// golden replays the paper's experiments in the deterministic golden mode
// and compares every rendered table with the committed digest.
type golden struct {
	order []string
	want  map[string][]byte
	mode  experiments.Mode
	rec   *recorder
}

// goldenIDs are the hidden-node sweep, the testbed tree, every registered
// MAC and the DSME GTS scalability study.
var goldenIDs = []string{"fig07-09", "fig18", "baselines", "fig21-22"}

// goldenDir holds the committed digests, relative to the repository root.
const goldenDir = "internal/experiments/testdata/golden"

// newGolden loads the digests. The seed only shuffles the order the
// experiments run in: their inputs are fixed by the digests.
func newGolden(seed uint64, rec *recorder) (*golden, error) {
	g := &golden{order: append([]string(nil), goldenIDs...), want: map[string][]byte{}, rec: rec}
	rand.New(rand.NewPCG(seed, 0)).Shuffle(len(g.order), func(i, j int) {
		g.order[i], g.order[j] = g.order[j], g.order[i]
	})
	for _, id := range goldenIDs {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden digest: %w", err)
		}
		g.want[id] = b
	}
	g.mode = experiments.Golden()
	g.mode.Parallel = 2
	return g, nil
}

func (g *golden) workers() int { return g.mode.Parallel }

func (g *golden) params() map[string]any {
	return map[string]any{"experiments": g.order, "mode": g.mode.Name, "parallel": g.mode.Parallel}
}

// setup builds the experiments' topologies and assembles one QMA scenario
// on each, as every replication of the families does.
func (g *golden) setup() (float64, float64) {
	t := time.Now()
	nets := []*topo.Network{topo.HiddenNode(), topo.Tree10(), topo.FactoryHall(topo.FactoryConfig{Nodes: 40, Seed: 42})}
	var rings []*topo.Network
	for _, n := range topo.RingNodeCounts() {
		rings = append(rings, topo.RingsForCount(n))
	}
	topoS := seconds(t)
	t = time.Now()
	for _, net := range nets {
		scenario.Run(scenario.Config{Network: net, Seed: 1, Duration: sim.Microsecond})
	}
	for _, net := range rings {
		dsme.RunScenario(dsme.ScenarioConfig{Network: net, Seed: 1, Duration: sim.Microsecond})
	}
	return topoS, seconds(t)
}

// goldenDigest is the committed digest shape (see the experiments package's
// golden test).
type goldenDigest struct {
	Experiment string        `json:"experiment"`
	Mode       string        `json:"mode"`
	Tables     []goldenTable `json:"tables"`
}

type goldenTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func (g *golden) rep() (outcome, error) {
	var o outcome
	for _, id := range g.order {
		tables, ok := experiments.Run(id, g.mode)
		if !ok {
			return o, fmt.Errorf("unknown experiment %q", id)
		}
		// Every run of the experiment has returned, so its counters are final.
		t := g.rec.drain()
		o.Events += t.events
		o.Radio.Accumulate(t.radio)
		d := goldenDigest{Experiment: id, Mode: g.mode.Name}
		for _, tb := range tables {
			d.Tables = append(d.Tables, goldenTable{ID: tb.ID, Title: tb.Title, Columns: tb.Columns, Rows: tb.Rows, Notes: tb.Notes})
			switch tb.ID {
			case "Fig. 7":
				o.PDR = columnMean(tb, "QMA")
			case "Fig. 9":
				o.DelayMS = 1000 * columnMean(tb, "QMA")
			}
		}
		got, err := json.MarshalIndent(&d, "", "  ")
		if err != nil {
			return o, err
		}
		if got = append(got, '\n'); !bytes.Equal(got, g.want[id]) {
			return o, fmt.Errorf("experiment %s drifted from %s/%s.json", id, goldenDir, id)
		}
	}
	return o, nil
}

// columnMean averages a table column of "mean ±ci" cells (the QMA curve of
// Fig. 7 is the PDR, of Fig. 9 the delay in seconds).
func columnMean(t *experiments.Table, col string) float64 {
	c := -1
	for i, name := range t.Columns {
		if name == col {
			c = i
		}
	}
	if c < 0 || len(t.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, row := range t.Rows {
		cell, _, _ := strings.Cut(row[c], " ")
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return 0
		}
		sum += v
	}
	return sum / float64(len(t.Rows))
}
