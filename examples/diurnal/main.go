// Diurnal: a day/night load wave through the Scenario API. The
// cup.DiurnalWave generator modulates the Poisson query rate
// sinusoidally around its mean; an observer tallies queries per wave
// phase, showing CUP's proactive pushes absorbing the peaks — the cache
// stays warm precisely when traffic is at its heaviest. Swap
// cup.WithTransport(cup.Live) (plus cup.WithTimeScale) and the same
// scenario replays on the goroutine network.
package main

import (
	"context"
	"fmt"
	"strings"

	"cup"
)

func main() {
	const (
		period  = 300.0 // one full wave in scenario seconds
		buckets = 12    // histogram resolution across the run
	)
	wave := cup.DiurnalWave{Mean: 20, Amplitude: 0.9, Period: period}

	window := 900.0 // three full waves
	counts := make([]int, buckets)
	start := 300.0 // queries begin after one replica lifetime
	d, err := cup.New(
		cup.WithNodes(256),
		cup.WithQueryDuration(cup.Seconds(window)),
		cup.WithSeed(13),
		cup.WithTraffic(wave),
	)
	if err != nil {
		panic(err)
	}
	defer d.Close()
	d.Observe(cup.ObserverFunc(func(e cup.Event) {
		if e.Kind != cup.EvQueryIssued {
			return
		}
		b := int((float64(e.Time) - start) / window * buckets)
		if b >= 0 && b < buckets {
			counts[b]++
		}
	}))

	res, err := d.Run(context.Background())
	if err != nil {
		panic(err)
	}

	fmt.Printf("Diurnal wave: λ = 20 q/s ± 90%%, period %.0f s, three waves over %.0f s\n\n", period, window)
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, c := range counts {
		bar := strings.Repeat("█", c*48/max)
		fmt.Printf("t=%4.0fs %6d q %s\n", start+float64(i)*window/buckets, c, bar)
	}
	c := res.Counters
	fmt.Printf("\n%d queries total; %.1f%% served from warm caches, miss latency %.2f hops\n",
		c.Queries, 100*float64(c.Hits)/float64(c.Queries), c.MissLatencyHops())
	fmt.Printf("update overhead %d hops bought %d saved miss hops across the peaks\n",
		c.Overhead(), c.Hits)
}
