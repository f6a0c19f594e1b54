// Command cupd boots a live CUP deployment behind the HTTP serving
// layer: a dumb update-propagation cache server in the justcache sense,
// where the smart clients (package cup/client, command cupload) carry
// the placement and population logic. Every -addr listener serves the
// /v1 key API alongside /metrics, /trace, and /debug/pprof on the same
// port; several listeners on one process stand in for a small server
// fleet so rendezvous-hashing clients have a host set to rank.
//
// A GET miss enters CUP's query path at the key's deterministic entry
// node, so the protocol's query coalescing absorbs miss storms; PUT,
// DELETE, and promise grants draw from the admission token bucket
// (-admit-rate). The process runs until -duration elapses or SIGINT /
// SIGTERM arrives.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cup"
	"cup/internal/overlay"
	"cup/internal/serve"
)

// A -keys preload publishes 2 replicas of each key, each for an hour.
const preloadReplicas, preloadTTL = 2, time.Hour

func main() {
	var (
		addrFlag  = flag.String("addr", "127.0.0.1:8080", "comma-separated listen addresses (:0 picks free ports); each serves /v1, /metrics, /trace, /debug/pprof")
		nodes     = flag.Int("nodes", 64, "number of goroutine peers")
		overlayK  = flag.String("overlay", "can", "overlay substrate: "+overlay.KindList())
		hop       = flag.Duration("hop", time.Millisecond, "per-hop delay")
		seed      = flag.Int64("seed", 1, "random seed")
		keys      = flag.Int("keys", 0, "preload this many keys, each with 2 replicas of 1 h lifetime, before serving")
		admitRate = flag.Float64("admit-rate", 0, "write-path admission tokens/s (0 = default, negative disables)")
		duration  = flag.Duration("duration", 0, "exit after this long (0 = run until SIGINT/SIGTERM)")
	)
	flag.Parse()

	addrs := serve.SplitAddrs(*addrFlag)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "cupd: -addr needs at least one listen address")
		os.Exit(2)
	}
	opts := []cup.Option{
		cup.WithLive(),
		cup.WithNodes(*nodes),
		cup.WithOverlay(*overlayK),
		cup.WithHopDelay(*hop),
		cup.WithSeed(*seed),
		cup.WithServing(addrs...),
		// Telemetry with an empty addr: collect event counters and traces
		// without a dedicated listener — the serving addresses already
		// expose /metrics and /trace.
		cup.WithTelemetry(""),
	}
	if *admitRate != 0 {
		opts = append(opts, cup.WithAdmitRate(*admitRate, 0))
	}
	d, err := cup.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cupd:", err)
		os.Exit(2)
	}
	defer d.Close()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	for i := 0; i < *keys; i++ {
		key := cup.Key(fmt.Sprintf("key-%d", i))
		for r := 0; r < preloadReplicas; r++ {
			addr := fmt.Sprintf("203.0.113.%d", (i*preloadReplicas+r)%250+1)
			if err := d.Publish(ctx, key, r, addr, preloadTTL); err != nil {
				fmt.Fprintln(os.Stderr, "cupd: preload:", err)
				os.Exit(1)
			}
		}
	}
	if *keys > 0 {
		fmt.Printf("preloaded %d keys × %d replicas (ttl %v)\n", *keys, preloadReplicas, preloadTTL)
	}

	for _, a := range d.ServingAddrs() {
		fmt.Printf("serving on http://%s (/v1/key, /metrics, /trace, /debug/pprof)\n", a)
	}

	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	<-ctx.Done()
	fmt.Println("cupd: shutting down")
}
