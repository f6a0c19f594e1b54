package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"cup"
	"cup/client"
	"cup/internal/cache"
	cupcore "cup/internal/cup"
	"cup/internal/live"
	"cup/internal/obs"
	"cup/internal/overlay"
	"cup/internal/serve"
	"cup/internal/sim"
	"cup/internal/wire"
)

// The functions in this file drive one layer's public functions for a
// moment, on the workload's own inputs, and record ns/op and allocs/op.
// They run in traced runs only and say which layer an end-to-end change
// came from; none of them is gated.

// sink keeps the compiler from discarding a driven call's result.
var sink any

// drive runs fn n times after a warm-up and returns the mean
// nanoseconds and heap allocations per call.
func drive(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < n/10+1; i++ {
		fn(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// driveSim churns timers through the scheduler the way a run does: a
// bounded set of pending timers, each re-armed as it fires, and one
// extra timer in four scheduled and cancelled.
func driveSim(l map[string]float64) {
	const (
		events  = 400_000
		pending = 1024
	)
	s := sim.NewScheduler()
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired+pending <= events {
			s.After(sim.Duration(fired%97+1), fn)
		}
		if fired%4 == 0 {
			s.Cancel(s.After(50, fn))
		}
	}
	for i := 0; i < pending; i++ {
		s.After(sim.Duration(i%97+1), fn)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := s.Run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil || fired != events {
		return
	}
	l["sim.sched_ns_per_event"] = float64(elapsed.Nanoseconds()) / events
	l["sim.sched_allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / events
}

// upstream is a Router whose every next hop is node 1: node 0 is never
// an authority, so its handlers take the caching paths.
type upstream struct{}

func (upstream) NextHopTowardOwner(overlay.NodeID, overlay.Key) overlay.NodeID { return 1 }

// driveNode measures the two handlers that dominate a sweep: a query
// answered from a fresh cached entry, and a refresh applied and pushed
// on to one interested neighbour.
func driveNode(l map[string]float64, keys []overlay.Key) {
	now := sim.Time(1)
	n := cupcore.NewNode(0, cupcore.Defaults(), upstream{}, func() sim.Time { return now })
	entry := func(k overlay.Key) cache.Entry {
		return cache.Entry{Key: k, Replica: 0, Addr: "10.0.0.1", Expires: 1e9}
	}
	for _, k := range keys {
		n.HandleQuery(cupcore.LocalClient, k, 0) // sets pending-first-update
		n.HandleUpdate(1, cupcore.Update{Key: k, Type: cupcore.FirstTime,
			Entries: []cache.Entry{entry(k)}, Replica: -1, Depth: 1, Expires: 1e9})
		n.HandleQuery(2, k, 0) // neighbour 2 registers interest
	}
	const ops = 200_000
	l["cup.handle_query_ns"], l["cup.handle_query_allocs"] = drive(ops, func(i int) {
		sink = n.HandleQuery(cupcore.LocalClient, keys[i%len(keys)], 0)
	})
	l["cup.handle_update_ns"], l["cup.handle_update_allocs"] = drive(ops, func(i int) {
		k := keys[i%len(keys)]
		sink = n.HandleUpdate(1, cupcore.Update{Key: k, Type: cupcore.Refresh,
			Entries: []cache.Entry{entry(k)}, Replica: 0, Depth: 1, Expires: 1e9, Lifetime: 300})
	})
}

func driveCache(l map[string]float64, keys []overlay.Key) {
	s := cache.NewStore()
	for _, k := range keys {
		s.Put(cache.Entry{Key: k, Replica: 0, Addr: "10.0.0.1", Expires: 1e9})
	}
	const ops = 500_000
	l["cache.fresh_ns"], _ = drive(ops, func(i int) { sink = s.Fresh(keys[i%len(keys)], 1) })
	l["cache.put_ns"], _ = drive(ops, func(i int) {
		s.Put(cache.Entry{Key: keys[i%len(keys)], Replica: 0, Addr: "10.0.0.1", Expires: 1e9})
	})
}

// driveOverlay builds an overlay of the given kind and size and walks
// the router over (node, key) pairs of the workload's keys. Each pair is
// asked twice in a row across the run, so the figure mixes the first
// resolution with the memoised one the way a run does.
func driveOverlay(l map[string]float64, kind string, n int, seed int64, keys []overlay.Key, build bool) {
	start := time.Now()
	ov, err := overlay.Build(kind, n, cupcore.OverlaySeed(seed))
	if err != nil {
		return
	}
	if build {
		l["overlay."+kind+".build_s"] = time.Since(start).Seconds()
	}
	r := cupcore.NewOverlayRouter(ov)
	const ops = 200_000
	l["overlay."+kind+".next_hop_ns"], _ = drive(ops, func(i int) {
		node := overlay.NodeID((i / 2 * 7919) % n)
		sink = r.NextHopTowardOwner(node, keys[i%len(keys)])
	})
}

// driveObs measures what telemetry adds to each protocol event: the
// Bus fan-out with a Collector attached, the Collector and Tracer on
// their own, and one /metrics scrape of the resulting registry.
func driveObs(l map[string]float64, keys []overlay.Key) {
	reg := obs.NewRegistry()
	col := obs.NewCollector(reg)
	trc := obs.NewTracer()
	bus := cupcore.NewBus()
	detach := bus.Attach(col)
	defer detach()
	ev := func(i int) cupcore.Event {
		kind := cupcore.EvQueryIssued
		switch i % 3 {
		case 1:
			kind = cupcore.EvQueryAnswered
		case 2:
			kind = cupcore.EvUpdatePushed
		}
		return cupcore.Event{Kind: kind, Time: sim.Time(i), Node: overlay.NodeID(i % 64),
			Peer: overlay.NodeID((i + 1) % 64), Key: keys[i%len(keys)], Type: cupcore.Refresh, Depth: 2, Entries: 1}
	}
	const ops = 300_000
	l["cup.bus_ns_per_event"], _ = drive(ops, func(i int) { bus.OnEvent(ev(i)) })
	l["obs.collector_ns_per_event"], _ = drive(ops, func(i int) { col.OnEvent(ev(i)) })
	l["obs.tracer_ns_per_event"], _ = drive(ops, func(i int) { trc.OnEvent(ev(i)) })
	ns, _ := drive(200, func(int) { _ = reg.WritePrometheus(io.Discard) })
	l["obs.scrape_ms"] = ns / 1e6
}

// driveWire encodes and decodes the two messages the TCP transport
// carries on a lookup and a refresh, alone and through the framing.
func driveWire(l map[string]float64, keys []overlay.Key) {
	msgs := func(i int) wire.Message {
		k := keys[i%len(keys)]
		if i%2 == 0 {
			return wire.Query{From: 3, Key: k, QueryID: uint64(i)}
		}
		return wire.UpdateMsg{From: 3, Update: cupcore.Update{Key: k, Type: cupcore.Refresh,
			Entries: []cache.Entry{{Key: k, Replica: 0, Addr: "k0.v0", Expires: 1e6}},
			Replica: 0, Depth: 2, Expires: 1e6, Lifetime: 3600}}
	}
	encoded := [][]byte{wire.Marshal(msgs(0)), wire.Marshal(msgs(1))}
	const ops = 300_000
	l["wire.marshal_ns"], l["wire.marshal_allocs"] = drive(ops, func(i int) { sink = wire.Marshal(msgs(i)) })
	l["wire.unmarshal_ns"], l["wire.unmarshal_allocs"] = drive(ops, func(i int) {
		m, err := wire.Unmarshal(encoded[i%2])
		if err != nil {
			panic(err) // the bytes came from Marshal: only a codec bug gets here
		}
		sink = m
	})
	var buf bytes.Buffer
	l["wire.frame_roundtrip_ns"], l["wire.frame_roundtrip_allocs"] = drive(ops, func(i int) {
		buf.Reset()
		if err := wire.WriteFrame(&buf, msgs(i)); err != nil {
			panic(err)
		}
		m, err := wire.ReadFrame(&buf)
		if err != nil {
			panic(err)
		}
		sink = m
	})
}

// driveLiveChan measures one mailbox round trip on the goroutine
// transport: a lookup of a fresh key at its authority, which is what
// every served hit costs below the HTTP handler.
func driveLiveChan(ctx context.Context, l map[string]float64, keys []overlay.Key) error {
	n := live.NewNetwork(live.Config{Nodes: 64, Overlay: "can", Seed: 1})
	defer n.Close()
	if len(keys) > 64 {
		keys = keys[:64]
	}
	at := make([]overlay.NodeID, len(keys))
	for i, k := range keys {
		if err := n.AddReplicaCtx(ctx, k, 0, "10.0.0.1", time.Hour); err != nil {
			return fmt.Errorf("live.chan drive: %w", err)
		}
		at[i] = n.Authority(k)
	}
	var failed error
	l["live.chan.lookup_hit_ns"], _ = drive(50_000, func(i int) {
		es, err := n.Lookup(ctx, at[i%len(keys)], keys[i%len(keys)])
		if err != nil || len(es) == 0 {
			failed = fmt.Errorf("live.chan drive: lookup %q: %d entries, %v", keys[i%len(keys)], len(es), err)
		}
	})
	return failed
}

// deploymentBackend adapts a live cup.Deployment to serve.Backend, so
// the handlers can be driven with no socket and no admission bucket.
type deploymentBackend struct{ d *cup.Deployment }

func (b deploymentBackend) Size() int     { return b.d.Size() }
func (b deploymentBackend) Now() sim.Time { return b.d.Now() }
func (b deploymentBackend) Load() (int, int) {
	return 0, 0
}
func (b deploymentBackend) LookupAt(ctx context.Context, at overlay.NodeID, key overlay.Key) ([]cache.Entry, error) {
	return b.d.LookupAt(ctx, at, key)
}
func (b deploymentBackend) Publish(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return b.d.Publish(ctx, key, replica, addr, lifetime)
}
func (b deploymentBackend) Unpublish(ctx context.Context, key overlay.Key, replica int) error {
	return b.d.Unpublish(ctx, key, replica)
}

// driveServe runs the HTTP handlers over an in-process live deployment
// through httptest recorders: the handler's own cost, without net/http's
// connection handling or a system call. It returns the CPU-free figure
// the caller subtracts from the server's measured CPU per request.
func driveServe(ctx context.Context, l map[string]float64, keys []string, hop time.Duration) error {
	d, err := cup.New(cup.WithLive(), cup.WithNodes(64), cup.WithOverlay("can"),
		cup.WithHopDelay(hop), cup.WithSeed(1))
	if err != nil {
		return fmt.Errorf("serve drive: %w", err)
	}
	defer d.Close()
	srv, err := serve.New(serve.Config{Backend: deploymentBackend{d}, AdmitRate: -1})
	if err != nil {
		return fmt.Errorf("serve drive: %w", err)
	}
	defer srv.Close()
	mux := http.NewServeMux()
	srv.Register(mux)
	if len(keys) > 256 {
		keys = keys[:256]
	}
	do := func(method, key, body string, want int) error {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req := httptest.NewRequest(method, "/v1/key/"+key, rd).WithContext(ctx)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != want {
			return fmt.Errorf("serve drive: %s %s: status %d, want %d", method, key, rec.Code, want)
		}
		return nil
	}
	const put = `{"replica":0,"addr":"k.v0","ttl_s":3600}`
	for _, k := range keys {
		if err := do(http.MethodPut, k, put, http.StatusNoContent); err != nil {
			return err
		}
		// The first read walks the query path and leaves the entry
		// cached at the key's entry node; later reads are hits.
		if err := do(http.MethodGet, k, "", http.StatusOK); err != nil {
			return err
		}
	}
	var failed error
	keep := func(err error) {
		if err != nil {
			failed = err
		}
	}
	l["serve.get_hit_ns"], l["serve.get_hit_allocs"] = drive(30_000, func(i int) {
		keep(do(http.MethodGet, keys[i%len(keys)], "", http.StatusOK))
	})
	ns, _ := drive(300, func(i int) {
		keep(do(http.MethodGet, fmt.Sprintf("drive-miss-%d", i), "", http.StatusNotFound))
	})
	l["serve.get_miss_us"] = ns / 1e3
	ns, _ = drive(3_000, func(i int) {
		keep(do(http.MethodPut, keys[i%len(keys)], put, http.StatusNoContent))
	})
	l["serve.put_us"] = ns / 1e3
	return failed
}

// driveClient measures the smart client's rendezvous ranking, paid once
// per request before any byte is sent.
func driveClient(l map[string]float64, c *client.Client, keys []string) {
	l["client.rank_ns"], _ = drive(200_000, func(i int) { sink = c.RankHosts(keys[i%len(keys)]) })
}
