package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden-trace harness pins byte-identical simulator behaviour: for
// each covered experiment it recomputes the full rendered tables in the
// deterministic Golden mode and diffs them against the committed digest
// under testdata/golden. Any change to the event kernel, the medium, the
// MAC engines or the experiment plumbing that shifts a single delivered
// packet shows up as a digest diff — "byte-identical when dynamics are
// disabled" no longer depends on manually diffing RunAll output.
//
// Refresh recipe (only after intentionally changing simulator behaviour):
//
//	go test ./internal/experiments -run TestGoldenTraces -update-golden
//
// and review the digest diff like any other code change.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden digests")

// goldenIDs are the experiments covered by committed digests, every
// registered family: the paper's figures (hidden-node sweep, testbed,
// DSME scalability and the Markov model), the Q-table kinds of the
// ablation, the energy model, the large-N scale family, the dynamics
// family, the cross-protocol baselines family, the capture-enabled NOMA
// power-level family, the fault-injection family, the overload/access-
// barring family and the multi-cell sharded mMTC family.
var goldenIDs = []string{
	"fig07-09", "fig10-11", "fig12", "fig13-15", "fig18", "fig19", "fig21-22", "fig26",
	"ablation", "energy", "scale", "dynamics", "baselines", "noma", "faults", "overload", "mmtc",
}

// goldenDigest is the committed JSON shape.
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

func computeDigest(t *testing.T, id string) []byte {
	t.Helper()
	tables, ok := Run(id, Golden())
	if !ok {
		t.Fatalf("unknown experiment id %q", id)
	}
	d := goldenDigest{Experiment: id, Mode: Golden().Name}
	for _, tb := range tables {
		d.Tables = append(d.Tables, goldenTable{
			ID: tb.ID, Title: tb.Title, Columns: tb.Columns, Rows: tb.Rows, Notes: tb.Notes,
		})
	}
	out, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestGoldenTraces(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", id+".json")
			got := computeDigest(t, id)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden digest %s (refresh with -update-golden): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("experiment %q drifted from its golden digest %s:\n%s\n(refresh with -update-golden only for intentional behaviour changes)",
					id, path, digestDiff(want, got))
			}
		})
	}
}

// digestDiff renders the first few differing lines of two digests.
func digestDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg []byte
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if bytes.Equal(lw, lg) {
			continue
		}
		fmt.Fprintf(&out, "line %d:\n  golden: %s\n  got:    %s\n", i+1, lw, lg)
		if shown++; shown >= 8 {
			fmt.Fprintf(&out, "  … (further diffs suppressed)\n")
			break
		}
	}
	return out.String()
}
