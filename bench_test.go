// Benchmarks regenerating every table and figure of the CUP paper's
// evaluation (§3), one testing.B per artifact, plus ablations A1–A8
// (internal/experiment/ablation.go). Each iteration regenerates the
// complete artifact at the paper's parameters (the same code path as
// `cupbench`; all of them together take about 20 s). Rendered tables are attached via b.Log —
// run with `go test -bench=. -benchtime=1x -v` to see them.
package cup_test

import (
	"fmt"
	"testing"

	"cup/internal/experiment"
	"cup/internal/overlay"
)

// benchArtifact runs one experiment generator per iteration.
func benchArtifact(b *testing.B, name string) {
	gen, ok := experiment.Registry[name]
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	sc := experiment.Scale{Seed: 1}
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = gen(sc).Render()
	}
	if rendered == "" {
		b.Fatal("experiment produced no output")
	}
	b.Log("\n" + rendered)
}

// BenchmarkFig3PushLevel regenerates Figure 3: total and miss cost versus
// push level for λ ∈ {1, 10} queries/s on a 2^10-node CAN.
func BenchmarkFig3PushLevel(b *testing.B) { benchArtifact(b, "fig3") }

// BenchmarkFig4PushLevel regenerates Figure 4: the same sweep at
// λ ∈ {100, 1000} queries/s (log-scale axis in the paper).
func BenchmarkFig4PushLevel(b *testing.B) { benchArtifact(b, "fig4") }

// BenchmarkTable1Policies regenerates Table 1: total cost under standard
// caching, linear/logarithmic/second-chance cut-off policies, and the
// optimal push level, for λ ∈ {1, 10, 100, 1000}.
func BenchmarkTable1Policies(b *testing.B) { benchArtifact(b, "table1") }

// BenchmarkTable2NetworkSize regenerates Table 2: CUP vs standard caching
// across network sizes n = 2^k.
func BenchmarkTable2NetworkSize(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkTable3Replicas regenerates Table 3: naive vs
// replica-independent cut-off for varying replicas per key.
func BenchmarkTable3Replicas(b *testing.B) { benchArtifact(b, "table3") }

// BenchmarkFig5Capacity regenerates Figure 5: total cost vs reduced
// outgoing capacity at λ = 1 query/s.
func BenchmarkFig5Capacity(b *testing.B) { benchArtifact(b, "fig5") }

// BenchmarkFig6Capacity regenerates Figure 6: the capacity sweep at
// λ = 1000 queries/s.
func BenchmarkFig6Capacity(b *testing.B) { benchArtifact(b, "fig6") }

// BenchmarkAblationOverlay re-runs the headline comparison on Chord
// instead of CAN (§2.2 overlay independence).
func BenchmarkAblationOverlay(b *testing.B) { benchArtifact(b, "overlay") }

// BenchmarkAblationCoalescing measures the query channel's burst
// coalescing under a flash crowd (§2.5).
func BenchmarkAblationCoalescing(b *testing.B) { benchArtifact(b, "coalesce") }

// BenchmarkAblationReordering measures §2.8's update re-ordering under
// constrained outgoing capacity.
func BenchmarkAblationReordering(b *testing.B) { benchArtifact(b, "reorder") }

// BenchmarkJustifiedUpdates validates the §3.1 cost model's
// justified-update prediction against measurements.
func BenchmarkJustifiedUpdates(b *testing.B) { benchArtifact(b, "justified") }

// BenchmarkAblationAggregation measures the §3.6 authority-side refresh
// suppression and aggregation techniques with many replicas per key.
func BenchmarkAblationAggregation(b *testing.B) { benchArtifact(b, "aggregate") }

// BenchmarkAblationPiggyback measures §2.7's clear-bit piggybacking
// against the paper's standalone accounting.
func BenchmarkAblationPiggyback(b *testing.B) { benchArtifact(b, "piggyback") }

// BenchmarkAblationLatency re-runs the headline comparison under
// heterogeneous per-link latency models.
func BenchmarkAblationLatency(b *testing.B) { benchArtifact(b, "latency") }

// BenchmarkAblationChurn measures CUP vs standard caching under §2.9
// node joins and departures.
func BenchmarkAblationChurn(b *testing.B) { benchArtifact(b, "churn") }

// BenchmarkOverlayRouting measures raw routing cost (one PathTo walk per
// iteration on a 1024-node overlay) for every registered substrate —
// CAN, Chord, and Kademlia — side by side.
func BenchmarkOverlayRouting(b *testing.B) {
	const n = 1024
	for _, kind := range overlay.Kinds() {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			ov := overlay.MustBuild(kind, n, 1)
			keys := make([]overlay.Key, 256)
			for i := range keys {
				keys[i] = overlay.Key(fmt.Sprintf("bench-%d", i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				overlay.PathTo(ov, overlay.NodeID(i%n), keys[i%len(keys)], 10*n+256)
			}
		})
	}
}

// BenchmarkOverlayBuild measures construction cost per substrate at
// 1024 nodes (the CAN's random joins, Chord's finger tables, Kademlia's
// k-buckets).
func BenchmarkOverlayBuild(b *testing.B) {
	for _, kind := range overlay.Kinds() {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				overlay.MustBuild(kind, 1024, int64(i+1))
			}
		})
	}
}
