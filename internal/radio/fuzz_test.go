package radio

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// FuzzGraphTopologyLinks fuzzes the link layer's structural invariants: an
// arbitrary byte string becomes a graph (AddLink calls, including loops and
// duplicates), and the test asserts that AppendLinks is sorted, unique,
// self-free and contains every link whose LinkSignal margin is
// non-negative, that decoding is symmetric, and — using the remaining bytes
// as a churn script — that a Medium's incrementally maintained rows keep
// matching a naive per-event re-classification. Committed seeds live in
// testdata/fuzz.
func FuzzGraphTopologyLinks(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 0, 0, 0, 1, 2})
	f.Add([]byte{3, 0, 1, 0, 2, 1, 2, 9, 9})
	f.Add([]byte{12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 3, 5, 7, 2, 4, 6, 8, 250, 251})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%14)
		g := NewGraphTopology(n)
		i := 1
		for ; i+1 < len(data) && i < 40; i += 2 {
			g.AddLink(frame.NodeID(int(data[i])%n), frame.NodeID(int(data[i+1])%n))
		}

		// Structural invariants of enumeration and classification.
		for src := 0; src < n; src++ {
			s := frame.NodeID(src)
			checkLinkAgreement(t, "graph", g, s)
			for dst := 0; dst < n; dst++ {
				if d := frame.NodeID(dst); Decodes(g, s, d) != Decodes(g, d, s) {
					t.Fatalf("decoding (%d,%d) asymmetric", src, dst)
				}
			}
		}

		// Churn script: the remaining bytes toggle node presence on a live
		// medium; after every toggle the incrementally maintained rows must
		// equal a naive re-classification over present nodes.
		m := NewMedium(sim.NewKernel(), g, sim.NewRand(1))
		present := make([]bool, n)
		for j := range present {
			present[j] = true
		}
		for ; i < len(data) && i < 80; i++ {
			id := int(data[i]) % n
			present[id] = !present[id]
			m.SetPresent(frame.NodeID(id), present[id])
			for src := 0; src < n; src++ {
				s := frame.NodeID(src)
				var want []frame.NodeID
				if present[src] {
					for dst := 0; dst < n; dst++ {
						if present[dst] && Decodes(g, s, frame.NodeID(dst)) {
							want = append(want, frame.NodeID(dst))
						}
					}
				}
				if !equalIDs(m.DecodeNeighbors(s), want) {
					t.Fatalf("after toggling %d: decode row of %d = %v, naive %v",
						id, src, m.DecodeNeighbors(s), want)
				}
				if !equalIDs(m.SenseNeighbors(s), want) {
					t.Fatalf("after toggling %d: sense row of %d = %v, naive %v",
						id, src, m.SenseNeighbors(s), want)
				}
			}
		}
	})
}
