// Observer: watch a live CUP network through its telemetry registry. A
// background workload publishes, refreshes, and looks up keys from
// random peers; the main goroutine polls the deployment's metrics
// registry (populated by the bus collector that cup.WithTelemetry
// attaches) and prints a per-second rate line — queries
// issued/answered, updates pushed, cut-offs — plus, at the end, the
// answer-latency histogram and one key's propagation trace. The same
// registry is what /metrics serves; polling it in-process beats
// hand-counting bus events because the cumulative series are shared
// with every other consumer.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cup"
)

func main() {
	d, err := cup.New(
		cup.WithTransport(cup.Live),
		cup.WithTelemetry(""), // collect in-process; pass an addr to also serve /metrics
		cup.WithNodes(64),
		cup.WithHopDelay(500*time.Microsecond),
		cup.WithSeed(3),
	)
	if err != nil {
		panic(err)
	}
	defer d.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 6*time.Second)
	defer cancel()

	keys := []cup.Key{"alpha", "beta", "gamma"}
	for i, k := range keys {
		for r := 0; r < 2; r++ {
			if err := d.Publish(ctx, k, r, fmt.Sprintf("198.51.100.%d", 10*i+r), time.Hour); err != nil {
				panic(err)
			}
		}
	}

	// Background workload: lookups from random peers plus periodic
	// refreshes, so the registry sees both miss traffic and pushed updates.
	go func() {
		rng := rand.New(rand.NewSource(3))
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			i++
			k := keys[rng.Intn(len(keys))]
			if i%40 == 0 {
				_ = d.Publish(ctx, k, rng.Intn(2), "198.51.100.99", time.Hour)
				continue
			}
			lctx, lcancel := context.WithTimeout(ctx, time.Second)
			_, _ = d.LookupAt(lctx, cup.NodeID(rng.Intn(d.Size())), k)
			lcancel()
		}
	}()

	// eventTotal reads one cumulative per-kind series from the registry.
	eventTotal := func(kind cup.EventKind) float64 {
		v, _ := d.MetricValue("cup_events_total",
			cup.MetricLabel{Key: "kind", Value: kind.String()})
		return v
	}
	watched := []cup.EventKind{
		cup.EvQueryIssued, cup.EvQueryAnswered, cup.EvUpdatePushed, cup.EvCutoffFired,
	}

	// Poll the cumulative counters once a second and print the deltas:
	// the same numbers a Prometheus rate() query would compute.
	fmt.Println("per-second event rates from the telemetry registry:")
	fmt.Printf("%-8s %8s %9s %8s %8s\n", "t", "queries", "answered", "pushed", "cutoffs")
	prev := make([]float64, len(watched))
	second := time.NewTicker(time.Second)
	defer second.Stop()
	start := time.Now()
	for done := false; !done; {
		select {
		case <-second.C:
		case <-ctx.Done():
			done = true
		}
		cur := make([]float64, len(watched))
		for i, k := range watched {
			cur[i] = eventTotal(k)
		}
		fmt.Printf("%-8s %8.0f %9.0f %8.0f %8.0f\n",
			time.Since(start).Round(time.Second),
			cur[0]-prev[0], cur[1]-prev[1], cur[2]-prev[2], cur[3]-prev[3])
		prev = cur
	}

	// The registry also carries what per-event tailing cannot: the
	// answer-latency distribution and the reconstructed span trees.
	for _, m := range d.Metrics() {
		if m.Name == "cup_query_latency_seconds" {
			fmt.Printf("\nanswer latency: %d samples, mean %.4fs\n",
				m.Count, m.Sum/float64(m.Count))
		}
	}
	if tr, ok := d.Trace("alpha"); ok {
		fmt.Printf("propagation tree for %q: %d spans, %d cut-offs, root %v\n",
			tr.Key, len(tr.Spans), tr.Cutoffs, tr.Root)
	}
}
