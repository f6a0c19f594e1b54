// Tests of the multi-trial sweep surface: WithTrials/WithParallelism on
// the simulated transport. Run under -race (CI does) these also prove
// the isolation invariant that internal/live/scenario.go documents for
// closed-loop clients: concurrent consumers must never share one
// TrafficEnv RNG — here, every parallel trial owns a distinct env.Rand.
package cup_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cup"
	"cup/internal/overlay"
)

// rngRecorder wraps a Traffic generator and records the *rand.Rand each
// trial's TrafficEnv carries at Stream-bind time.
type rngRecorder struct {
	inner cup.Traffic

	mu   sync.Mutex
	seen []*rand.Rand
}

func (r *rngRecorder) Name() string { return "rng-recorder" }

func (r *rngRecorder) Stream(env cup.TrafficEnv) cup.TrafficStream {
	r.mu.Lock()
	r.seen = append(r.seen, env.Rand)
	r.mu.Unlock()
	return r.inner.Stream(env)
}

func trialOpts(extra ...cup.Option) []cup.Option {
	opts := []cup.Option{
		cup.WithNodes(64),
		cup.WithQueryRate(4),
		cup.WithQueryDuration(cup.Seconds(120)),
		cup.WithSeed(11),
	}
	return append(opts, extra...)
}

func runTrials(t *testing.T, extra ...cup.Option) *cup.Result {
	t.Helper()
	d, err := cup.New(trialOpts(extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every parallel trial binds its Traffic stream to a distinct RNG: the
// trials share nothing but the generator value itself.
func TestParallelTrialsDistinctRNGs(t *testing.T) {
	rec := &rngRecorder{inner: cup.PoissonTraffic(0)}
	runTrials(t, cup.WithTrials(8), cup.WithParallelism(4), cup.WithTraffic(rec))
	// 8 trial binds plus one from the deployment's own (interactive)
	// runtime built at New time; every one must carry its own RNG.
	if len(rec.seen) < 8 {
		t.Fatalf("recorded %d trial RNGs, want at least 8", len(rec.seen))
	}
	distinct := make(map[*rand.Rand]bool, len(rec.seen))
	for _, r := range rec.seen {
		if r == nil {
			t.Fatal("a trial bound a nil env.Rand")
		}
		if distinct[r] {
			t.Fatal("two parallel trials share one env.Rand")
		}
		distinct[r] = true
	}
}

// The merged Result is bit-identical whatever the parallelism, and a
// one-trial sweep equals a plain run.
func TestTrialsMergeDeterministic(t *testing.T) {
	seq := runTrials(t, cup.WithTrials(4), cup.WithParallelism(1)).Counters
	par := runTrials(t, cup.WithTrials(4), cup.WithParallelism(4)).Counters
	if seq != par {
		t.Fatalf("parallel merge diverged from sequential:\n%v\n%v", seq.String(), par.String())
	}
	if seq.Queries == 0 {
		t.Fatal("sweep produced no queries")
	}

	one := runTrials(t, cup.WithTrials(1)).Counters
	plain := runTrials(t).Counters
	if one != plain {
		t.Fatalf("WithTrials(1) diverged from a plain run:\n%v\n%v", one.String(), plain.String())
	}
	if seq == plain {
		t.Fatal("4-trial sweep equals a single run: per-trial seeds not applied")
	}
}

// A live multi-trial Run still needs a scenario, exactly like a
// single live Run: trials repeat the scripted workload, and a live
// deployment without one is interactive.
func TestLiveTrialsNeedScenario(t *testing.T) {
	d, err := cup.New(
		cup.WithLive(),
		cup.WithNodes(8),
		cup.WithTrials(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(context.Background()); err == nil {
		t.Fatal("live multi-trial Run without a scenario did not error")
	}
}

// The acceptance shape of live sweeps: four isolated live networks run
// concurrently, two at a time, and the merged counters carry all four
// trials' traffic. Run under -race (CI does) this also proves the
// side-by-side networks share no state.
func TestLiveTrialsRunConcurrently(t *testing.T) {
	d, err := cup.New(
		cup.WithLive(),
		cup.WithTrials(4),
		cup.WithParallelism(2),
		cup.WithNodes(16),
		cup.WithTraffic(cup.PoissonTraffic(0)),
		cup.WithQueryRate(20),
		cup.WithLifetime(cup.Seconds(5)),
		cup.WithQueryWindow(cup.Seconds(5), cup.Seconds(10)),
		cup.WithTimeScale(50),
		cup.WithHopDelay(200*time.Microsecond),
		cup.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := d.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.QueryHops == 0 {
		t.Fatal("four live trials produced no query messages")
	}
}

// The live-approximation tolerance for multi-trial sweeps: the live
// transport counts real messages racing wall-clock delivery (cache
// warm-up, coalescing, and refresh timing all race), so merged counts
// agree within an absolute slack of 48 or half the larger count —
// checked with the same `within` helper the sim/live event-parity test
// uses. Anything outside this band means the transports' trial
// derivations (TrialSeed → topology + workload) have drifted apart.
const (
	liveSweepAbsTolerance = 48
	liveSweepRelTolerance = 0.5
)

// Cross-transport trial parity: the same multi-trial sweep on the
// simulated and the live transport, on every registered overlay, must
// land its merged counters inside the documented live-approximation
// tolerance. Under -race (CI runs it) this is also the proof that N
// concurrent live networks share no state: each trial derives its own
// topology and workload from TrialSeed, and any cross-network aliasing
// would both trip the race detector and skew the merged counts.
func TestTrialSweepCrossTransportParity(t *testing.T) {
	sweep := func(transport cup.Transport, kind string) (cup.Counters, int) {
		opts := []cup.Option{
			cup.WithTransport(transport),
			cup.WithOverlay(kind),
			cup.WithTrials(3),
			cup.WithParallelism(3),
			cup.WithNodes(16),
			cup.WithTraffic(cup.PoissonTraffic(0)),
			cup.WithQueryRate(10),
			cup.WithLifetime(cup.Seconds(5)),
			cup.WithQueryWindow(cup.Seconds(5), cup.Seconds(20)),
			cup.WithTimeScale(50),
			cup.WithHopDelay(200 * time.Microsecond),
			cup.WithSeed(23),
		}
		d, err := cup.New(opts...)
		if err != nil {
			t.Fatalf("New(%v, %s): %v", transport, kind, err)
		}
		defer d.Close()
		issued := 0
		var mu sync.Mutex
		detach := d.Observe(cup.ObserverFunc(func(e cup.Event) {
			if e.Kind == cup.EvQueryIssued {
				mu.Lock()
				issued++
				mu.Unlock()
			}
		}))
		defer detach()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		res, err := d.Run(ctx)
		if err != nil {
			t.Fatalf("Run(%v, %s): %v", transport, kind, err)
		}
		mu.Lock()
		defer mu.Unlock()
		return res.Counters, issued
	}

	for _, kind := range overlay.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			simC, simIssued := sweep(cup.Simulated, kind)
			liveC, liveIssued := sweep(cup.Live, kind)

			// Both transports must have run all three trials' traffic.
			if simIssued == 0 || liveIssued == 0 {
				t.Fatalf("a sweep issued no queries: sim %d, live %d", simIssued, liveIssued)
			}
			if !within(simIssued, liveIssued, liveSweepAbsTolerance, liveSweepRelTolerance) {
				t.Errorf("merged query arrivals: sim %d, live %d (outside tolerance)",
					simIssued, liveIssued)
			}
			// The live transport folds message counts into the hop
			// fields (one message = one hop); the sim reports true hops.
			if !within(int(simC.QueryHops), int(liveC.QueryHops), liveSweepAbsTolerance, liveSweepRelTolerance) {
				t.Errorf("merged query hops: sim %d, live %d (outside tolerance)",
					simC.QueryHops, liveC.QueryHops)
			}
		})
	}
}

func TestTrialsOptionValidation(t *testing.T) {
	if _, err := cup.New(cup.WithTrials(0)); err == nil {
		t.Fatal("WithTrials(0) accepted")
	}
	if _, err := cup.New(cup.WithParallelism(-2)); err == nil {
		t.Fatal("WithParallelism(-2) accepted")
	}
}
