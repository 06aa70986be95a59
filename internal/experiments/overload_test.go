package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"qma/internal/sim"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"all zero", []float64{0, 0, 0}, 1},
		{"equal shares", []float64{5, 5, 5, 5}, 1},
		{"one hog", []float64{10, 0, 0, 0}, 0.25},
		{"mixed", []float64{4, 2}, 0.9},
	}
	for _, tc := range cases {
		if got := jainIndex(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: jainIndex = %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestOverloadConfigScalesLoadNotWindow pins the sweep's core construction:
// raising the multiplier scales the Poisson rate and the per-source packet
// budget together, so the generation window — and with it the measurement
// interval — stays fixed and the overload is sustained rather than merely
// front-loaded.
func TestOverloadConfigScalesLoadNotWindow(t *testing.T) {
	c := baselineCases()[0]
	mode := Golden()
	one := baselineConfig(c, "", 1, mode, 1)
	three := baselineConfig(c, "", 3, mode, 1)
	if one.Duration != three.Duration {
		t.Errorf("duration changed with the multiplier: %v vs %v", one.Duration, three.Duration)
	}
	var rate1, rate3 float64
	var max1, max3 int
	for i := range one.Traffic {
		if one.Traffic[i].MaxPackets == 0 {
			continue // management stream
		}
		rate1 = one.Traffic[i].Phases[0].Rate
		max1 = one.Traffic[i].MaxPackets
	}
	for i := range three.Traffic {
		if three.Traffic[i].MaxPackets == 0 {
			continue
		}
		rate3 = three.Traffic[i].Phases[0].Rate
		max3 = three.Traffic[i].MaxPackets
	}
	if rate3 != 3*rate1 {
		t.Errorf("3x rate = %g, want %g", rate3, 3*rate1)
	}
	if max3 != 3*max1 {
		t.Errorf("3x per-source budget = %d, want %d", max3, 3*max1)
	}
	genWindow := sim.FromSeconds(float64(mode.Packets) / c.delta)
	if want := mode.Warmup + genWindow + 30*sim.Second; one.Duration != want {
		t.Errorf("duration = %v, want %v", one.Duration, want)
	}
}

// TestOverloadGoldenShowsGracefulDegradation reads the committed golden
// digest and asserts the family's reason to exist: at least one
// topology/protocol pair collapses under 3x load without barring while the
// AIMD controller holds it on a plateau.
func TestOverloadGoldenShowsGracefulDegradation(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "overload.json"))
	if err != nil {
		t.Fatalf("missing overload golden (refresh with -update-golden): %v", err)
	}
	var d goldenDigest
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	for _, tb := range d.Tables {
		if tb.ID != "Ovl. verdict" {
			continue
		}
		// Columns: topology, protocol, thr off, verdict off, thr aimd, verdict aimd.
		for _, row := range tb.Rows {
			if len(row) == 6 && row[3] == "collapse" && row[5] == "plateau" {
				return
			}
		}
		t.Fatal("no row collapses without barring while plateauing with AIMD — the committed golden no longer demonstrates graceful degradation")
	}
	t.Fatal("overload golden has no 'Ovl. verdict' table")
}
