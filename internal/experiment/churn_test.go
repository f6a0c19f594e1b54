package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cup"
)

// churnKinds are the dynamic substrates §2.9 churn runs on.
var churnKinds = []string{"can", "kademlia"}

// Simulated §2.9 churn is pinned byte for byte, like the paper tables:
// Ablation A8 on each dynamic substrate is the committed output of
// `cupbench -exp churn [-overlay kademlia]`, so any change to the join
// hand-over, the leave redistribution or the neighbourhood patching
// that moves a hop shows up here.
func TestChurnAblationMatchesGolden(t *testing.T) {
	for _, kind := range churnKinds {
		t.Run(kind, func(t *testing.T) {
			got := AblationChurn(Scale{Seed: 1, Overlay: kind, eng: pool}).Render()
			want, err := os.ReadFile(filepath.Join("testdata", "churn", "a8-"+kind+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("A8 on %s differs from its committed table:\n--- got ---\n%s--- want ---\n%s", kind, got, want)
			}
		})
	}
}

// The registered churn scenario on a 1024-node deployment at seed 1 (what
// `cupsim -scenario churn [-overlay kademlia]` runs) keeps every counter,
// the float miss-latency sum included, bit for bit.
func TestChurnScenarioCountersMatchGolden(t *testing.T) {
	for _, kind := range churnKinds {
		t.Run(kind, func(t *testing.T) {
			sc, err := cup.BuildScenario("churn")
			if err != nil {
				t.Fatal(err)
			}
			res := run(cup.WithOverlay(kind), cup.WithSeed(1),
				cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...))
			got, err := json.MarshalIndent(res.Counters, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "churn", "counters-"+kind+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got)+"\n" != string(want) {
				t.Fatalf("churn scenario on %s: counters differ from the committed ones:\n--- got ---\n%s\n--- want ---\n%s", kind, got, want)
			}
		})
	}
}
