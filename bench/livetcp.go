package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cup/internal/live"
	"cup/internal/overlay"
)

const (
	tcpNodes = 64
	// tcpKeys is how many keys are seeded. Every lookup asks for a key
	// nobody has asked for yet, so each one is a first-time miss: a query
	// forwarded hop by hop to the authority and a response back, all over
	// framed TCP. Looking the same keys up again would warm the caches,
	// and a run would measure how far its own warming had come. The count
	// covers a run at a few times the reference box's speed.
	tcpKeys = 1 << 18
	// tcpRefreshEvery is the mix: one replica refresh, pushed down the
	// interest tree the lookups left behind, per this many lookups.
	tcpRefreshEvery = 32
	// tcpRefreshLag is how many lookups back the refreshed key lies, so
	// its lookup has long finished and left an interested node.
	tcpRefreshLag = 1024
	tcpWindow     = 250 * time.Millisecond
	tcpSetups     = 3
	// tcpWarmUp lookups are discarded: every peer dials every neighbour
	// it forwards to. tcpRSSAt is the lookup after which peak RSS is
	// read: every lookup leaves cached entries along its path, so at the
	// end of a timed run the figure would be the run's speed.
	tcpWarmUp = 1 << 13
	tcpRSSAt  = 1 << 16
	// tcpRef is refLoop's nominal time in this process, whose ~350 MB of
	// live heap make the loop's own collections rare.
	tcpRef = 1300 * time.Microsecond
)

func tcpKey(i int) overlay.Key { return overlay.Key(fmt.Sprintf("t%d", i)) }
func tcpAddr(i int) string     { return fmt.Sprintf("t%d.addr", i) }

// bootTCP starts the network and seeds one replica per key. The overlay
// seed is fixed: the run's seed draws the lookups, not the topology, so
// the work of a run does not swing with the mean path length of one
// random 64-node CAN.
func bootTCP(ctx context.Context) (*live.TCPNetwork, time.Duration, error) {
	start := time.Now()
	tn, err := live.NewTCPNetwork(live.Config{Nodes: tcpNodes, Overlay: "can", Seed: 1})
	if err != nil {
		return nil, 0, err
	}
	boot := time.Since(start)
	for i := 0; i < tcpKeys; i++ {
		// Lifetimes far beyond the run: nothing expires mid-run.
		if err := tn.AddReplicaCtx(ctx, tcpKey(i), 0, tcpAddr(i), time.Hour); err != nil {
			tn.Close()
			return nil, 0, fmt.Errorf("seed replica %d: %w", i, err)
		}
	}
	return tn, boot, nil
}

// tcpRun is what one timed region of live-tcp measured.
type tcpRun struct {
	lookups   int
	refreshes int
	opUs      float64  // median over the windows of the window's median lookup latency
	cpuUs     float64  // this process's CPU time over the region's lookups, per lookup
	speed     boxSpeed // of the box over the region: see calib.go
	inboxMax  int
	all       latencies
	rssMB     float64 // peak RSS when lookup tcpRSSAt had finished; 0 if never reached
}

// tcpLookups looks fresh keys up at seeded nodes, one after another,
// refreshing an earlier key every tcpRefreshEvery lookups, until d has
// gone by and key number atLeast has been asked for. next is the first
// key not yet asked for; the new one is returned.
func tcpLookups(ctx context.Context, tn *live.TCPNetwork, rng *rand.Rand, next, atLeast int, d time.Duration, log *spanLog, out *outcome) (*tcpRun, int, error) {
	r := &tcpRun{speed: boxSpeed{nominal: tcpRef}}
	var (
		p50s []float64
		cpu  time.Duration
	)
	start := time.Now()
	for n := 1; time.Since(start) < d || next < atLeast; n++ {
		from := len(r.all)
		cpu0 := selfCPU()
		for end, now := start.Add(time.Duration(n)*tcpWindow), time.Now(); now.Before(end); next++ {
			if next == tcpRSSAt {
				r.rssMB = selfPeakRSSMB()
			}
			k := next % tcpKeys
			node := overlay.NodeID(rng.Intn(tcpNodes))
			s := log.begin("live.lookup", 0, int64(next+1))
			entries, err := tn.Lookup(ctx, node, tcpKey(k))
			log.end(s)
			done := time.Now()
			r.all = append(r.all, done.Sub(now))
			now = done
			switch {
			case err != nil:
				out.fail("lookup %s at %v: %v", tcpKey(k), node, err)
			case len(entries) == 0 || entries[0].Addr != tcpAddr(k):
				out.fail("lookup %s at %v: %d entries, want address %s", tcpKey(k), node, len(entries), tcpAddr(k))
			}
			if back := next - tcpRefreshLag; next%tcpRefreshEvery == 0 && back >= 0 {
				k := back % tcpKeys
				s := log.begin("live.refresh", 0, int64(next+1)<<32)
				err := tn.RefreshCtx(ctx, tcpKey(k), 0, tcpAddr(k), time.Hour)
				log.end(s)
				r.refreshes++
				if err != nil {
					out.fail("refresh %s: %v", tcpKey(k), err)
				}
				now = time.Now() // the refresh is not part of the next lookup
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, next, err
		}
		cpu += selfCPU() - cpu0
		if got := r.all[from:]; len(got) > 0 {
			p50s = append(p50s, percentile(got.sortedMs(), 0.5)*1e3)
		}
		if used, _ := tn.InboxLoad(); used > r.inboxMax {
			r.inboxMax = used
		}
		r.speed.sample()
	}
	r.lookups = len(r.all)
	r.opUs = median(p50s)
	r.cpuUs = float64(cpu.Nanoseconds()) / 1e3 / float64(r.lookups)
	out.Attempted += r.lookups + r.refreshes
	return r, next, nil
}

// runLiveTCP measures first-time-miss lookups over framed TCP from one
// closed-loop caller, with replica refreshes mixed in at a fixed ratio.
// The whole network is in this process, on one core.
func runLiveTCP(ctx context.Context, cfg runConfig, tr *tracer, out *outcome) error {
	var (
		tn     *live.TCPNetwork
		boots  []float64
		rounds []float64
	)
	for r := 0; r < tcpSetups; r++ {
		if tn != nil {
			tn.Close()
		}
		start := time.Now()
		var (
			boot time.Duration
			err  error
		)
		if tn, boot, err = bootTCP(ctx); err != nil {
			return err
		}
		rounds = append(rounds, time.Since(start).Seconds())
		boots = append(boots, boot.Seconds())
	}
	defer func() {
		if tn != nil {
			tn.Close()
		}
	}()

	// The repeated set-up's garbage is not the network's footprint.
	resetPeakRSS()
	rng := rand.New(rand.NewSource(cfg.seed*104729 + 1))
	_, next, err := tcpLookups(ctx, tn, rng, 0, tcpWarmUp, 0, nil, &outcome{})
	if err != nil {
		return err
	}
	stats0 := tn.Stats()
	r, next, err := tcpLookups(ctx, tn, rng, next, tcpRSSAt+1, cfg.region(), nil, out)
	if err != nil {
		return err
	}
	stats1 := tn.Stats()
	// The set-ups ended seconds before the region began: the box's speed
	// over the region stands for its speed during them.
	out.E2E["setup_s"] = median(rounds) / r.speed.factor()
	out.E2E["op_us"] = r.opUs / r.speed.factor()
	out.E2E["op_cpu_us"] = r.cpuUs / r.speed.factor()
	out.E2E["peak_rss_mb"] = r.rssMB
	out.note("%d first-time-miss lookups from one closed-loop caller with %d refreshes between them, in windows of %v; one op is one lookup: op_us is the median over the windows of the window's median latency, op_cpu_us this process's CPU time over the region per lookup; peak_rss_mb is read after lookup %d",
		r.lookups, r.refreshes, tcpWindow, tcpRSSAt)
	out.note("the box ran the reference loop at %.2f of its nominal time over the region, so the times above are divided by %.3f: as measured, op_us %.3f and op_cpu_us %.3f", r.speed.slowdown(), r.speed.factor(), r.opUs, r.cpuUs)
	if next > tcpKeys {
		out.note("the run asked for more than the %d seeded keys: its last %d lookups repeated early keys and may have hit", tcpKeys, next-tcpKeys)
	}

	if tr != nil {
		traced, _, err := tcpLookups(ctx, tn, rng, next, 0, cfg.region(), tr.log(), out)
		if err != nil {
			return err
		}
		l := out.Layers
		l["trace.overhead_share"] = (traced.opUs/traced.speed.factor() - out.E2E["op_us"]) / out.E2E["op_us"]
		l["trace.box_slowdown"] = traced.speed.slowdown()
		q := float64(stats1.QueryMsgs - stats0.QueryMsgs)
		u := float64(stats1.UpdateMsgs - stats0.UpdateMsgs)
		l["live.tcp.query_msgs"] = q
		l["live.tcp.update_msgs"] = u
		l["live.tcp.msgs_per_lookup"] = (q + u) / float64(r.lookups)
		l["live.tcp.inbox_used_max"] = float64(max(r.inboxMax, traced.inboxMax))
		l["live.tcp.boot_s"] = median(boots)
		sorted := r.all.sortedMs()
		l["live.tcp.lookup_p95_us"] = percentile(sorted, 0.95) * 1e3
		l["live.tcp.lookup_p99_us"] = percentile(sorted, 0.99) * 1e3
		keys := make([]overlay.Key, 256)
		for i := range keys {
			keys[i] = tcpKey(i)
		}
		// The drives allocate; with the network's ~350 MB still live,
		// what they measured was the collector marking it.
		tn.Close()
		tn = nil
		runtime.GC()
		driveWire(l, keys)
		driveNode(l, keys)
		driveOverlay(l, "can", tcpNodes, 1, keys, false)
	}
	return nil
}
