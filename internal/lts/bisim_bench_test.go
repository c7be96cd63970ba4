package lts_test

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// benchBisimilar decides m ~ m per op: one refinement of the disjoint
// union of m with itself, 2·m.Len() states.
func benchBisimilar(b *testing.B, m *lts.LTS) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !lts.Bisimilar(m, m) {
			b.Fatal("an LTS is not bisimilar to itself")
		}
	}
	b.ReportMetric(float64(2*m.Len()), "states")
}

// BenchmarkBisimilarPingPong10 refines the largest Fig. 9 exploration,
// Ping-pong (10) closed: 59 049 states, a few rounds each.
func BenchmarkBisimilarPingPong10(b *testing.B) {
	s := systems.PingPongPairs(10, false)
	m, err := lts.Explore(closedSem(s), s.Type, lts.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchBisimilar(b, m)
}

// BenchmarkBisimilarChain2000 is the refiner's worst case: a τ-chain
// ending in ✔, whose coarsest partition separates every state by its
// distance to the end, one state per round.
func BenchmarkBisimilarChain2000(b *testing.B) {
	const n = 2000
	states := make([]types.Type, n)
	adj := make([][]lts.AdjEdge, n)
	for i := range n {
		states[i] = types.Nil{}
		if i+1 < n {
			adj[i] = []lts.AdjEdge{{Label: typelts.TauChoice{}, Dst: i + 1}}
		} else {
			adj[i] = []lts.AdjEdge{{Label: typelts.Done{}, Dst: i}}
		}
	}
	benchBisimilar(b, lts.FromAdjacency(states, adj, 0))
}
