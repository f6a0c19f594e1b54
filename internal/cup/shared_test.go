package cup

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"cup/internal/metrics"
	"cup/internal/overlay"
)

// staticCell is a small run on kind; churnCell is the same run with
// three joins and three departures in its query window.
func staticCell(kind string, seed int64) Params {
	return Params{OverlayKind: kind, Nodes: 64, QueryRate: 2, QueryDuration: 600, Seed: seed}
}

func churnCell(kind string, seed int64) Params {
	p := staticCell(kind, seed)
	p.Faults = []Fault{NodeChurn{At: 350, Period: 50, Rounds: 6}}
	return p
}

func TestStaticRunsShareTheirOverlay(t *testing.T) {
	for _, kind := range []string{"can", "chord", "kademlia"} {
		a, b := NewSimulation(staticCell(kind, 3)), NewSimulation(staticCell(kind, 3))
		if a.Ov != b.Ov {
			t.Errorf("%s: two runs of one (kind, n, seed) hold different overlays", kind)
		}
	}
	if NewSimulation(staticCell("can", 3)).Ov == NewSimulation(staticCell("can", 4)).Ov {
		t.Error("can: runs of two seeds hold one overlay")
	}
}

// A run that changes membership does so on its own copy: the shared
// overlay it started on is, after the run, still what a fresh build
// makes, and a static run on it repeats its Counters bit for bit.
func TestChurnTakesAPrivateOverlay(t *testing.T) {
	for _, kind := range []string{"can", "kademlia"} {
		static := NewSimulation(staticCell(kind, 3))
		shared, keys := static.Ov, static.Keys
		before := static.Run().Counters

		s := NewSimulation(churnCell(kind, 3))
		if s.Ov != shared {
			t.Fatalf("%s: the churn run did not start on the shared overlay", kind)
		}
		s.Run()
		if s.Ov == shared || s.departed == 0 {
			t.Fatalf("%s: the churn run changed no membership on a copy of its own", kind)
		}

		fresh := overlay.MustBuild(kind, 64, OverlaySeed(3))
		if shared.Size() != fresh.Size() {
			t.Fatalf("%s: shared overlay has %d nodes after the churn run, a fresh build %d", kind, shared.Size(), fresh.Size())
		}
		for i := range fresh.Size() {
			id := overlay.NodeID(i)
			if got, want := shared.Neighbors(id), fresh.Neighbors(id); !slices.Equal(got, want) {
				t.Fatalf("%s: node %v lists %v, a fresh build %v", kind, id, got, want)
			}
		}
		for _, k := range keys {
			if got, want := shared.Owner(k), fresh.Owner(k); got != want {
				t.Fatalf("%s: key %q is owned by %v, in a fresh build by %v", kind, k, got, want)
			}
		}
		if err := shared.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
			t.Fatalf("%s: shared overlay after the churn run: %v", kind, err)
		}
		if after := Run(staticCell(kind, 3)).Counters; after != before {
			t.Fatalf("%s: a static run after the churn run counts %+v, before it %+v", kind, after, before)
		}
	}
}

// Runs on several goroutines at once — static cells of every kind, a
// second CAN seed that evicts the first from the shared slot, and churn
// cells on the static cells' keys — count what each counts alone.
func TestSharedOverlayConcurrentCells(t *testing.T) {
	cells := []Params{
		staticCell("can", 3), churnCell("can", 3), staticCell("chord", 3),
		staticCell("kademlia", 3), churnCell("kademlia", 3), staticCell("can", 4),
	}
	want := make([]metrics.Counters, len(cells))
	for i, p := range cells {
		want[i] = Run(p).Counters
	}
	const workers = 4
	got := make([][]metrics.Counters, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([]metrics.Counters, len(cells))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range cells {
				i := (w + j) % len(cells)
				got[w][i] = Run(cells[i]).Counters
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("worker %d's Counters differ from the serial runs'", w)
		}
	}
}
