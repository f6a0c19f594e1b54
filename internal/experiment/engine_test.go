package experiment

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cup"
	"cup/internal/metrics"
)

// syntheticEngine builds an engine whose trials sleep Cost
// milliseconds and return a Result tagged with the trial's label, so
// scheduling behavior is observable without running real simulations.
// The recorded dispatch order is the order workers *started* trials.
func syntheticEngine(workers int, fifo bool) (*Engine, *[]string, *sync.Mutex) {
	e := NewEngine(workers)
	e.pending.fifo = fifo
	var mu sync.Mutex
	order := &[]string{}
	e.exec = func(tr Trial) *cup.Result {
		mu.Lock()
		*order = append(*order, tr.Label)
		mu.Unlock()
		time.Sleep(time.Duration(tr.Cost) * time.Millisecond)
		return &cup.Result{Counters: metrics.Counters{Queries: uint64(tr.Cost)}}
	}
	return e, order, &mu
}

// tailSweep is the ISSUE's synthetic shape: a grid of cheap cells with
// one 10× cell buried at the end — the λ=1000 tail of a figure sweep.
func tailSweep(unit float64) []Trial {
	trials := make([]Trial, 0, 9)
	for i := 0; i < 8; i++ {
		trials = append(trials, Trial{Label: string(rune('a' + i)), Cost: unit})
	}
	return append(trials, Trial{Label: "TAIL", Cost: 10 * unit})
}

// Cost-ordered dispatch starts the 10× cell first, so the sweep's wall
// time approaches the tail cell's own length; index-order dispatch
// discovers it last and pays cheap-queue + tail serially. The output —
// results in submission order — must be bit-identical either way.
func TestCostOrderedDispatchBeatsIndexOrder(t *testing.T) {
	const unit = 30 // ms; large enough to dominate goroutine scheduling noise
	timeSweep := func(fifo bool) ([]*cup.Result, time.Duration) {
		e, _, _ := syntheticEngine(2, fifo)
		start := time.Now()
		res := e.RunAll(tailSweep(unit))
		return res, time.Since(start)
	}
	adaptive, adaptiveWall := timeSweep(false)
	indexed, indexedWall := timeSweep(true)

	// Identical tables: same results, submission order, either mode.
	if len(adaptive) != len(indexed) {
		t.Fatalf("result counts differ: %d vs %d", len(adaptive), len(indexed))
	}
	for i := range adaptive {
		if adaptive[i].Counters != indexed[i].Counters {
			t.Fatalf("cell %d diverged between dispatch modes: %v vs %v",
				i, adaptive[i].Counters, indexed[i].Counters)
		}
	}

	// Makespan with 2 workers: index-order starts the tail only after
	// the 8-cell cheap queue drains, so its wall time is ≥ 4u + 10u
	// (sleeps can only overrun — this bound is noise-proof).
	// Cost-ordered dispatch starts the tail within the first pops, for
	// ≈ 10u–11u. Assert the baseline's guaranteed floor and a full
	// unit of separation rather than tight absolute ceilings, so a
	// loaded CI runner cannot flake the comparison.
	if floor := 13 * unit * time.Millisecond; indexedWall < floor {
		t.Errorf("index-order sweep took %v, want ≥ %v (did the baseline change?)",
			indexedWall, floor)
	}
	if adaptiveWall+unit*time.Millisecond >= indexedWall {
		t.Errorf("cost-ordered dispatch (%v) did not clearly beat index order (%v)",
			adaptiveWall, indexedWall)
	}
}

// The ordering contract, pinned as a golden sequence: with one worker
// dispatch is fully deterministic — most expensive first, submission
// order breaking ties — while results stay in submission order.
func TestDispatchOrderGolden(t *testing.T) {
	e, order, mu := syntheticEngine(1, false)
	trials := []Trial{
		{Label: "a", Cost: 1},
		{Label: "b", Cost: 5},
		{Label: "c", Cost: 1}, // ties with a: submission order
		{Label: "d", Cost: 50},
		{Label: "e", Cost: 5}, // ties with b: submission order
	}
	// Submit everything before the single worker can drain: stall it on
	// a sentinel first so the queue is fully populated when cost
	// ordering first matters.
	gate := make(chan struct{})
	origExec := e.exec
	e.exec = func(tr Trial) *cup.Result {
		if tr.Label == "gate" {
			<-gate
			return &cup.Result{}
		}
		return origExec(tr)
	}
	gateFut := e.Go(Trial{Label: "gate", Cost: 1000})
	futs := make([]*Future, len(trials))
	for i, tr := range trials {
		futs[i] = e.Go(tr)
	}
	close(gate)
	gateFut.Result()
	for i, f := range futs {
		if got := f.Result().Counters.Queries; got != uint64(trials[i].Cost) {
			t.Fatalf("result %d out of submission order: queries %d, want %g",
				i, got, trials[i].Cost)
		}
	}
	mu.Lock()
	got := strings.Join((*order), ",")
	mu.Unlock()
	const golden = "d,b,e,a,c"
	if got != golden {
		t.Fatalf("dispatch order %q, want golden %q", got, golden)
	}
}

// Auto-estimated costs rank a λ=1000 cell above λ=1 and a 4096-node
// network above 64 nodes, so real sweeps get the tail-first dispatch
// without annotating costs by hand.
func TestEstimatedCostOrdersRealCells(t *testing.T) {
	cheap := cup.EstimateCost(cup.WithNodes(64), cup.WithQueryRate(1))
	hot := cup.EstimateCost(cup.WithNodes(64), cup.WithQueryRate(1000))
	big := cup.EstimateCost(cup.WithNodes(4096), cup.WithQueryRate(1))
	if hot <= cheap {
		t.Errorf("λ=1000 cost %g not above λ=1 cost %g", hot, cheap)
	}
	if big <= cheap {
		t.Errorf("4096-node cost %g not above 64-node cost %g", big, cheap)
	}
}

// The engine reports per-trial wall times; their maximum is the sweep
// tail the bench harness reads.
func TestEngineTrialTimesAndTail(t *testing.T) {
	e, _, _ := syntheticEngine(2, false)
	e.RunAll(tailSweep(5))
	times := e.TrialTimes()
	if len(times) != 9 {
		t.Fatalf("recorded %d trial times, want 9", len(times))
	}
	if tail := slices.Max(times); tail < 50*time.Millisecond {
		t.Fatalf("tail %v below the 10× cell's own length", tail)
	}
}
