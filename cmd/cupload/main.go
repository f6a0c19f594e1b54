// Command cupload is the serving layer's open-loop load generator: it
// drives the smart client (package cup/client) against a cupd host set
// at a fixed offered rate, wrk-style, and reports throughput plus
// coordinated-omission-free latency percentiles.
//
// Open loop means arrivals are scheduled on a fixed timetable — arrival
// i fires at start + i/rate whether or not earlier requests finished —
// and each request's latency is measured from its *scheduled* arrival,
// so server-side stalls show up as queueing delay instead of silently
// thinning the offered load (the coordinated-omission trap in
// closed-loop generators). Worker w owns arrivals i ≡ w (mod workers),
// so no cross-worker coordination exists on the hot path.
//
// The workload mixes warm reads (Get against a preloaded keyspace) with
// cold miss-population rounds (GetOrFill against a never-preloaded
// keyspace, exercising the promise protocol end to end). -json writes
// the run's summary to the file it names (CI's serving-smoke gate reads
// it).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cup/client"
	"cup/internal/metrics"
	"cup/internal/serve"
)

// servingBench is the run summary -json writes.
type servingBench struct {
	Hosts       int     `json:"hosts"`
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    int     `json:"requests"`
	Errors      uint64  `json:"errors"`
	DurationS   float64 `json:"duration_s"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Promises    uint64  `json:"promises"`
	Busy        uint64  `json:"busy"`
	WriteBacks  uint64  `json:"write_backs"`
}

func main() {
	var (
		hostsFlag = flag.String("hosts", "", "comma-separated cupd addresses (required)")
		rate      = flag.Float64("rate", 20000, "offered request rate (req/s, open loop)")
		duration  = flag.Duration("duration", 5*time.Second, "load duration")
		workers   = flag.Int("workers", 0, "concurrent workers (0 = 4×GOMAXPROCS)")
		fanout    = flag.Int("fanout", 0, "rendezvous fanout (0 = default)")
		keys      = flag.Int("keys", 256, "warm keyspace size (preloaded via Put)")
		coldKeys  = flag.Int("cold-keys", 16, "cold keyspace size (populated via GetOrFill)")
		coldFrac  = flag.Float64("cold", 0.002, "fraction of requests aimed at the cold keyspace")
		ttl       = flag.Duration("ttl", 5*time.Minute, "entry TTL for preloads and fills")
		seed      = flag.Int64("seed", 1, "workload seed")
		jsonPath  = flag.String("json", "", "write the run summary to this JSON file")
	)
	flag.Parse()

	hosts := serve.SplitAddrs(*hostsFlag)
	if len(hosts) == 0 {
		fmt.Fprintln(os.Stderr, "cupload: -hosts is required")
		os.Exit(2)
	}
	if *rate <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "cupload: -rate and -duration must be positive")
		os.Exit(2)
	}
	w := *workers
	if w <= 0 {
		w = 4 * runtime.GOMAXPROCS(0)
	}

	c, err := client.New(client.Config{Hosts: hosts, Fanout: *fanout, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cupload:", err)
		os.Exit(2)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *duration+2*time.Minute)
	defer cancel()

	// Preload the warm keyspace so the steady-state mix measures serving,
	// not cold-start population.
	for i := 0; i < *keys; i++ {
		e := client.Entry{Replica: 0, Addr: fmt.Sprintf("198.51.100.%d", i%250+1), TTL: ttl.Seconds()}
		if err := c.Put(ctx, warmKey(i), e, 0); err != nil {
			fmt.Fprintf(os.Stderr, "cupload: preload %s: %v\n", warmKey(i), err)
			os.Exit(1)
		}
	}

	total := int(*rate * duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / *rate)

	// Per-worker latency slices merge after the run; nothing is shared on
	// the hot path but the client itself.
	lats := make([][]time.Duration, w)
	errCounts := make([]uint64, w)
	var wg sync.WaitGroup
	start := time.Now().Add(50 * time.Millisecond) // headroom so arrival 0 is not already late
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(wi)*7919))
			mine := make([]time.Duration, 0, total/w+1)
			for i := wi; i < total; i += w {
				scheduled := start.Add(time.Duration(i) * interval)
				if d := time.Until(scheduled); d > 0 {
					time.Sleep(d)
				}
				var err error
				if *coldFrac > 0 && rng.Float64() < *coldFrac {
					key := fmt.Sprintf("cold-%d", rng.Intn(*coldKeys))
					_, err = c.GetOrFill(ctx, key, func(context.Context) (client.Entry, time.Duration, error) {
						return client.Entry{Replica: 0, Addr: "origin.invalid", TTL: ttl.Seconds()}, *ttl, nil
					})
				} else {
					_, err = c.Get(ctx, warmKey(rng.Intn(*keys)))
				}
				if err != nil {
					errCounts[wi]++
				}
				// Latency from the scheduled arrival, not the send: queueing
				// behind a stalled server is the number that matters.
				mine = append(mine, time.Since(scheduled))
			}
			lats[wi] = mine
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var errs uint64
	for _, e := range errCounts {
		errs += e
	}
	st := c.Stats()
	bench := servingBench{
		Hosts:       len(hosts),
		Workers:     w,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		OfferedRPS:  *rate,
		AchievedRPS: float64(len(all)) / elapsed.Seconds(),
		Requests:    len(all),
		Errors:      errs,
		DurationS:   elapsed.Seconds(),
		P50Ms:       ms(metrics.Percentile(all, 0.50)),
		P95Ms:       ms(metrics.Percentile(all, 0.95)),
		P99Ms:       ms(metrics.Percentile(all, 0.99)),
		MaxMs:       ms(all[len(all)-1]),
		Hits:        st.Hits,
		Misses:      st.Misses,
		Promises:    st.Promises,
		Busy:        st.Busy,
		WriteBacks:  st.WriteBacks,
	}

	fmt.Printf("%d requests over %d hosts in %.2fs: offered %.0f req/s, achieved %.0f req/s, %d errors\n",
		bench.Requests, bench.Hosts, bench.DurationS, bench.OfferedRPS, bench.AchievedRPS, bench.Errors)
	fmt.Printf("latency from scheduled arrival: p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		bench.P50Ms, bench.P95Ms, bench.P99Ms, bench.MaxMs)
	fmt.Printf("client: %d hits, %d misses, %d promise grants, %d busy rounds, %d write-backs\n",
		st.Hits, st.Misses, st.Promises, st.Busy, st.WriteBacks)

	if *jsonPath != "" {
		raw, err := json.MarshalIndent(bench, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cupload: write json:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *jsonPath)
	}
}

func warmKey(i int) string { return fmt.Sprintf("warm-%d", i) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
