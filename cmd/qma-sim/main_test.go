package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBadFlagValuesExitNonZeroNamingTheFlag drives every user-facing parse
// error through run() and pins that the process would exit non-zero with a
// message naming the offending flag — a typo must never silently fall back
// to defaults.
func TestBadFlagValuesExitNonZeroNamingTheFlag(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantFlag string
	}{
		{"outage missing @", []string{"-fault-outage", "100+5"}, "-fault-outage"},
		{"outage bad node", []string{"-fault-outage", "x@100+5"}, "-fault-outage"},
		{"outage missing duration", []string{"-fault-outage", "1@100"}, "-fault-outage"},
		{"outage bad duration", []string{"-fault-outage", "1@100+x"}, "-fault-outage"},
		{"reboot missing @", []string{"-fault-reboot", "100"}, "-fault-reboot"},
		{"reboot bad instant", []string{"-fault-reboot", "0@x"}, "-fault-reboot"},
		{"ack-corrupt missing duration", []string{"-fault-ack-corrupt", "100"}, "-fault-ack-corrupt"},
		{"ack-corrupt bad start", []string{"-fault-ack-corrupt", "x+5"}, "-fault-ack-corrupt"},
		{"beacon-loss missing @", []string{"-fault-beacon-loss", "100+5"}, "-fault-beacon-loss"},
		{"beacon-loss bad window", []string{"-fault-beacon-loss", "1@z+5"}, "-fault-beacon-loss"},
		{"mac-opt without =", []string{"-mac-opt", "minbe"}, "-mac-opt"},
		{"mac-opt empty key", []string{"-mac-opt", "=3"}, "-mac-opt"},
		{"dynamics non-bool", []string{"-dynamics=maybe"}, "-dynamics"},
		{"unknown flag", []string{"-fault-quake", "1@2+3"}, "-fault-quake"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("args %v accepted (exit 0); stderr: %s", tc.args, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantFlag) {
				t.Fatalf("stderr does not name %s:\n%s", tc.wantFlag, stderr.String())
			}
		})
	}
}

// TestSemanticFlagErrorsExitNonZero covers the post-parse validation paths:
// values that parse but describe an impossible run.
func TestSemanticFlagErrorsExitNonZero(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"unknown mac", []string{"-mac", "token-ring"}, "unknown MAC"},
		{"unknown topology", []string{"-topology", "moebius"}, "unknown topology"},
		{"mac-opt unknown key", []string{"-mac", "unslotted", "-mac-opt", "warp=9", "-duration", "1"}, "warp"},
		{"mac-opt learning rate out of range", []string{"-mac-opt", "alpha=2", "-duration", "1", "-warmup", "0"}, "alpha=2"},
		{"noma learning rate out of range", []string{"-mac", "noma", "-capture-db", "6", "-mac-opt", "alpha=2", "-duration", "1", "-warmup", "0"}, "alpha=2"},
		{"mac-opt penalty NaN", []string{"-mac-opt", "xi=NaN", "-duration", "1", "-warmup", "0"}, "xi=NaN"},
		{"mac-opt learning rate NaN", []string{"-mac-opt", "alpha=NaN", "-duration", "1", "-warmup", "0"}, "alpha=NaN"},
		{"mac-opt initial Q infinite", []string{"-mac-opt", "initq=Inf", "-duration", "1", "-warmup", "0"}, "initq=+Inf"},
		{"bandit UCB constant NaN", []string{"-mac", "bandit", "-mac-opt", "ucbc=NaN", "-duration", "1", "-warmup", "0"}, "UCBC"},
		{"noma level step NaN", []string{"-mac", "noma", "-capture-db", "6", "-mac-opt", "step=NaN", "-duration", "1", "-warmup", "0"}, "LevelStepDB=NaN"},
		{"barring factor NaN", []string{"-barring", "fixed", "-barring-p", "NaN", "-duration", "1", "-warmup", "0"}, "P=NaN"},
		{"fault node out of range", []string{"-fault-outage", "99@10+5", "-duration", "1"}, "out of range"},
		{"fault on dsme path", []string{"-dsme", "-fault-reboot", "0@1"}, "-fault-"},
		{"fault on scale path", []string{"-scale", "50", "-fault-reboot", "0@1"}, "-fault-"},
		{"cells without mmtc", []string{"-cells", "2x2", "-duration", "1"}, "-cells requires -mmtc"},
		{"cells bad spec", []string{"-mmtc", "100", "-cells", "2by2", "-duration", "1", "-warmup", "0"}, "-cells"},
		{"cells zero count", []string{"-mmtc", "100", "-cells", "0x2", "-duration", "1", "-warmup", "0"}, "-cells"},
		{"mmtc with scale", []string{"-mmtc", "100", "-scale", "50", "-duration", "1"}, "-mmtc"},
		{"mmtc with dsme", []string{"-mmtc", "100", "-dsme", "-duration", "1"}, "-mmtc"},
		{"mmtc with mac-opt", []string{"-mmtc", "100", "-mac", "csma-unslotted", "-mac-opt", "minbe=2", "-duration", "1"}, "-mac-opt"},
		{"mmtc with summary-only", []string{"-mmtc", "100", "-summary-only", "-duration", "1"}, "-summary-only"},
		{"mmtc with faults", []string{"-mmtc", "100", "-fault-reboot", "0@1", "-duration", "1"}, "-fault-"},
		{"mmtc warmup past duration", []string{"-mmtc", "100", "-duration", "1", "-warmup", "2"}, "-warmup"},
		{"mmtc too few nodes per cell", []string{"-mmtc", "10", "-cells", "4x4", "-duration", "1", "-warmup", "0"}, "too small"},
		{"cpuprofile bad path", []string{"-cpuprofile", "/no/such/dir/cpu.out", "-duration", "1"}, "-cpuprofile"},
		{"memprofile bad path", []string{"-memprofile", "/no/such/dir/mem.out", "-duration", "1"}, "-memprofile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("args %v accepted (exit 0)", tc.args)
			}
			if !strings.Contains(stderr.String(), tc.wantMsg) {
				t.Fatalf("stderr does not mention %q:\n%s", tc.wantMsg, stderr.String())
			}
		})
	}
}

// TestIntegerTableLearnOverrides pins that an integer Q-table refuses
// learning parameters it would silently ignore, while the table alone and
// an override equal to the paper's value still run.
func TestIntegerTableLearnOverrides(t *testing.T) {
	short := []string{"-duration", "1", "-warmup", "0"}
	cases := []struct {
		opts []string
		want int
	}{
		{[]string{"-mac-opt", "table=fixed", "-mac-opt", "alpha=0.3", "-mac-opt", "xi=0"}, 1},
		{[]string{"-mac-opt", "table=fixed"}, 0},
		{[]string{"-mac-opt", "table=fixed", "-mac-opt", "alpha=0.5"}, 0},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(append(tc.opts, short...), &stdout, &stderr); code != tc.want {
			t.Errorf("%v: exit %d, want %d; stderr: %s", tc.opts, code, tc.want, stderr.String())
		}
	}
}

// TestFaultFlagsReachTheRun wires a full fault script through the CLI on a
// short run and checks it both executes and announces itself.
func TestFaultFlagsReachTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-duration", "20", "-warmup", "2", "-delta", "2",
		"-fault-outage", "1@8+2+beacons",
		"-fault-reboot", "0@12",
		"-fault-ack-corrupt", "14+1",
		"-fault-beacon-loss", "2@16+1",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "faults: 1 outage(s), 1 reboot(s), 1 ACK-corruption window(s), 1 beacon-loss window(s)") {
		t.Fatalf("fault banner missing:\n%s", out)
	}
	if !strings.Contains(out, "network PDR") {
		t.Fatalf("run did not complete:\n%s", out)
	}
}

// TestMMTCFlagRunsShardedCity drives a small sharded city end to end through
// the CLI and checks the per-cell table and network summary render.
func TestMMTCFlagRunsShardedCity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mmtc", "400", "-cells", "2x1", "-delta", "0.2",
		"-duration", "8", "-warmup", "2", "-seed", "1",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"400 devices in 2x1 cells",
		"boundary links",
		"network PDR",
		"cross-cell",
		"cell   nodes   routed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Two cell rows: one per cell of the 2x1 grid.
	if got := strings.Count(out, "\n"); got < 8 {
		t.Fatalf("suspiciously short output (%d lines):\n%s", got, out)
	}
}

// TestDSMEFlagRunsGTSScenario runs the DSME GTS scenario on the smallest
// ring and checks its five metric lines. Both ratios count each frame by
// its creation instant, so neither may exceed 1.
func TestDSMEFlagRunsGTSScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-topology", "rings1", "-dsme", "-duration", "30", "-warmup", "10", "-seed", "1",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"secondary PDR", "GTS-request success", "(de)allocations/s", "primary PDR", "duplicate GTS",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		for _, name := range []string{"secondary PDR", "GTS-request success"} {
			if !strings.HasPrefix(line, name) {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
			if err != nil {
				t.Fatalf("%s line %q: %v", name, line, err)
			}
			if v > 1 {
				t.Errorf("%s = %v, a ratio above 1", name, v)
			}
		}
	}
}

// TestProfileFlagsWriteFiles pins that -cpuprofile/-memprofile produce
// non-empty pprof files on a successful run.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-duration", "5", "-warmup", "1", "-delta", "2",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestSummaryOnlyFlagSkipsPerNodeTable pins the -summary-only contract on
// the plain path: network totals only, no per-node rows.
func TestSummaryOnlyFlagSkipsPerNodeTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-summary-only", "-duration", "10", "-warmup", "2", "-delta", "2", "-seed", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "network PDR") || !strings.Contains(out, "events") {
		t.Fatalf("summary line missing:\n%s", out)
	}
	if strings.Contains(out, "policy") {
		t.Fatalf("per-node table rendered despite -summary-only:\n%s", out)
	}
}
