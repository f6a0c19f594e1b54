package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cup/client"
	"cup/internal/overlay"
)

const (
	cupdPath  = "out/cupd"
	serveKeys = 1024
	// warmUp is discarded: connections are dialled and the Go runtime of
	// both processes settles.
	warmUp = time.Second
	// serveWindow slices the timed phase: the figures of a run are
	// medians over its windows, so a stall of the box spoils one window,
	// not the run.
	serveWindow = 250 * time.Millisecond
	// serveSetups is how many times a serving workload starts and
	// preloads its server, so that setup_s can be a median.
	serveSetups = 5
	// serveRef is refLoop's nominal time in the generator's process:
	// a small heap, so the loop's garbage is collected inside it.
	serveRef = 1900 * time.Microsecond
	// fillCallers publish and first read the keys during set-up. The
	// first read of a key walks the query path, whose time is hop timers,
	// and sixteen of them overlap. It is also the cap on connections.
	fillCallers = 16
)

// serveShape is what distinguishes the two serving workloads.
type serveShape struct {
	m        mix      // zero: every request reads a live key
	cupdArgs []string // beyond -nodes and -addr
	hop      time.Duration
	// openRate is the rate of the traced run's open-loop phase, and
	// limitMs the service limit on its p95 there.
	openRate float64
	limitMs  float64
}

func runServeRead(ctx context.Context, cfg runConfig, tr *tracer, out *outcome) error {
	return runServe(ctx, cfg, tr, out, serveShape{hop: time.Millisecond, openRate: 2500, limitMs: 5})
}

func runServeMixed(ctx context.Context, cfg runConfig, tr *tracer, out *outcome) error {
	// The hop delay stands for the network's latency. At any delay the
	// runtime can sleep through — it rounds 100 µs up to a millisecond —
	// a miss, which asks both ranked hosts and walks ~8 hops at each, is
	// 10 ms of sleeping; one caller's core then idles nine tenths of the
	// time, and the server's CPU time per request differed by a third
	// between identical runs, by what each wake-up of an idle core cost.
	// At 1 ns every message still gets its timer and its goroutine, but
	// the timer has expired before anyone sleeps, and the figure repeats
	// within a few per cent.
	return runServe(ctx, cfg, tr, out, serveShape{
		m: mix{miss: 0.10, put: 0.20, del: 0.05},
		// One caller sends ~3000 writes a second here; a faster box or a
		// faster server would cross the default 4096 admitted, and a
		// refused write is a failed request.
		cupdArgs: []string{"-hop", "1ns", "-admit-rate", "1e6"}, hop: time.Nanosecond,
		openRate: 300, limitMs: 50,
	})
}

// buildCupd compiles the server under test from this checkout.
func buildCupd(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", cupdPath, "cup/cmd/cupd")
	if raw, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build cupd: %v\n%s", err, raw)
	}
	return nil
}

// cupd is a running server subprocess.
type cupd struct {
	cmd   *exec.Cmd
	hosts []string
}

// startCupd starts the server on two free ports — two listeners on one
// process stand in for a two-host fleet, so the client has a set to
// rank; the loopback addresses differ because cupd folds identical
// listen strings into one — and returns once /metrics answers 200. With
// pin it runs on pinCore, beside the generator; GOMAXPROCS=1 either way,
// so its CPU time is one core's.
func startCupd(ctx context.Context, pin bool, extra []string) (*cupd, error) {
	args := append([]string{"-nodes", "64", "-addr", "127.0.0.1:0,127.0.0.2:0"}, extra...)
	name := cupdPath
	if pin {
		name, args = "taskset", append([]string{"-c", strconv.Itoa(pinCore()), cupdPath}, args...)
	}
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	// If this process dies without running stop, the kernel kills the
	// server: no path leaves one behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cupd: %w", err)
	}
	s := &cupd{cmd: cmd}
	ready := make(chan error, 1)
	go func() {
		// The listen ports come from :0 and are read back here.
		sc := bufio.NewScanner(stdout)
		for len(s.hosts) < 2 && sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "serving on http://"); ok {
				s.hosts = append(s.hosts, strings.Fields(rest)[0])
			}
		}
		if len(s.hosts) < 2 {
			ready <- fmt.Errorf("cupd exited before listing its addresses")
			return
		}
		ready <- nil
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until exit
	}()
	select {
	case err = <-ready:
	case <-ctx.Done():
		err = ctx.Err()
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("cupd did not list its addresses in 10 s")
	}
	if err == nil {
		err = s.awaitMetrics(ctx)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *cupd) awaitMetrics(ctx context.Context) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.scrape(ctx); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("cupd /metrics not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and waits for it to end.
func (s *cupd) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

func (s *cupd) pid() int { return s.cmd.Process.Pid }

// scrape reads /metrics into a map from series (name{labels}) to value.
func (s *cupd) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.hosts[0]+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// seriesSum adds the series of one family whose labels contain every
// given fragment.
func seriesSum(m map[string]float64, family string, fragments ...string) float64 {
	var t float64
next:
	for series, v := range m {
		name, labels, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				continue next
			}
		}
		t += v
	}
	return t
}

// runServe measures a serving workload. Server and generator share one
// core, each with GOMAXPROCS=1, and the timed phase is one closed-loop
// caller: every request meets an idle server and the two processes take
// turns, so a request's latency is the CPU time of the whole round trip
// and repeats within a few per cent. On cores of their own the same
// loop waits on the host to wake an idle core twice per request, and
// identical runs differed by a third (see README).
func runServe(ctx context.Context, cfg runConfig, tr *tracer, out *outcome, sh serveShape) error {
	pin := canPin()
	out.Pinned = pin
	if pin {
		if err := pinSelf(); err != nil {
			return err
		}
	}
	hc, transport := newHTTPClient(fillCallers)

	// Set-up: process start to first 200 from /metrics, plus publishing
	// every key over HTTP; several times, keeping the last server.
	var (
		srv    *cupd
		c      *client.Client
		fill   *generator
		rounds []float64
	)
	stop := func() {
		if c != nil {
			c.Close()
		}
		transport.CloseIdleConnections()
		if srv != nil {
			srv.stop()
		}
		srv, c = nil, nil
	}
	defer stop()
	for r := 0; r < serveSetups; r++ {
		stop()
		start := time.Now()
		var err error
		if srv, err = startCupd(ctx, pin, sh.cupdArgs); err != nil {
			return err
		}
		if c, err = client.New(client.Config{Hosts: srv.hosts, HTTP: hc, Seed: cfg.seed}); err != nil {
			return err
		}
		fill = newGenerator(c, cfg.seed, fillCallers, serveKeys, mix{}, nil, out)
		fill.preload(ctx)
		rounds = append(rounds, time.Since(start).Seconds())
		out.Attempted += fill.attempted()
	}
	if out.Failed > 0 {
		return nil // the preload failed: nothing below would mean anything
	}
	before := fill.attempted()
	fill.touch(ctx)
	out.Attempted += fill.attempted() - before
	srvCPU := func() (time.Duration, error) { return procCPU(srv.pid()) }

	// The measuring generator owns the same keys; every one is live.
	gen := newGenerator(c, cfg.seed, 1, serveKeys, sh.m, nil, out)
	if _, err := gen.pingPong(ctx, warmUp, warmUp, srvCPU); err != nil {
		return err
	}
	gen.restore(ctx)

	r, err := gen.pingPong(ctx, cfg.region(), serveWindow, srvCPU)
	if err != nil {
		return err
	}
	gen.restore(ctx)
	rss, err := procPeakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	// The set-ups ended seconds before the phase began: the box's speed
	// over the phase stands for its speed during them.
	out.E2E["setup_s"] = median(rounds) / r.speed.factor()
	out.E2E["op_us"] = r.opUs / r.speed.factor()
	out.E2E["op_cpu_us"] = r.cpuUs / r.speed.factor()
	out.E2E["peak_rss_mb"] = rss
	out.note("server and generator on core %d: %v; one closed-loop caller, %d requests on published keys and %d reads of keys never published, in windows of %v; one op is one request: op_us is the median over the windows of the window's median latency on published keys, op_cpu_us the server's CPU time over the phase per request of any kind",
		pinCore(), pin, len(r.live), len(r.miss), serveWindow)
	out.note("the box ran the reference loop at %.2f of its nominal time over the phase, so the times above are divided by %.3f: as measured, op_us %.3f and op_cpu_us %.3f", r.speed.slowdown(), r.speed.factor(), r.opUs, r.cpuUs)

	if tr != nil {
		if err := traceServe(ctx, cfg, tr, out, sh, srv, c, gen); err != nil {
			return err
		}
	}

	stats := c.Stats()
	out.Attempted += gen.attempted()
	if n := int(stats.Errors); n > 0 {
		// A transport error the client rode out by asking the next host
		// is still a failed request.
		out.fail("%d transport errors inside the smart client", n)
		out.Failed += n - 1
	}
	return ctx.Err()
}

// traceServe is the traced half of a traced run: the closed loop again
// with spans, an open-loop phase for latency under a fixed offered rate,
// a saturating closed loop, the server's own counters over all three,
// and the layer drives.
func traceServe(ctx context.Context, cfg runConfig, tr *tracer, out *outcome, sh serveShape, srv *cupd, c *client.Client, plain *generator) error {
	srvCPU := func() (time.Duration, error) { return procCPU(srv.pid()) }
	scrape0, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	// The traced generator's workers own the same keys; every key is
	// live again after restore, so the two never disagree.
	gen := newGenerator(c, cfg.seed+1, 1, serveKeys, sh.m, tr, out)
	genCPU0 := selfCPU()
	r, err := gen.pingPong(ctx, cfg.region(), serveWindow, srvCPU)
	if err != nil {
		return err
	}
	genCPU := selfCPU() - genCPU0
	gen.restore(ctx)
	l := out.Layers
	l["trace.overhead_share"] = (r.opUs/r.speed.factor() - out.E2E["op_us"]) / out.E2E["op_us"]
	l["trace.box_slowdown"] = r.speed.slowdown()
	l["client.cpu_us_per_req"] = float64(genCPU.Nanoseconds()) / 1e3 / float64(len(r.live)+len(r.miss))
	if len(r.miss) > 0 {
		l["load.miss_ms"] = percentile(r.miss.sortedMs(), 0.5)
	}
	st := selfTimes(tr.all())
	var calls int
	var self time.Duration
	for _, name := range []string{"client.get", "client.put", "client.delete"} {
		calls += st[name].Count
		self += st[name].Self
	}
	if rt := st["http.roundtrip"]; calls > 0 && rt.Count > 0 {
		l["client.self_us_per_req"] = float64(self.Microseconds()) / float64(calls)
		l["client.http_roundtrip_us"] = float64(rt.Total.Microseconds()) / float64(rt.Count)
	}

	// Open loop, untraced: latency from due time at a fixed offered rate.
	open := plain.openLoop(ctx, sh.openRate, 3*time.Second)
	plain.restore(ctx)
	lat := latencies(open.lat).sortedMs()
	lag := latencies(open.lag).sortedMs()
	achieved := float64(open.requests) / open.wall.Seconds()
	l["load.lag_p99_ms"] = percentile(lag, 0.99)
	l["load.achieved_rps"] = achieved
	l["load.p50_ms"] = percentile(lat, 0.50)
	l["load.p95_ms"] = percentile(lat, 0.95)
	l["load.p99_ms"] = percentile(lat, 0.99)
	l["load.p999_ms"] = percentile(lat, 0.999)
	l["load.max_ms"] = lat[len(lat)-1]
	if l["load.lag_p99_ms"] > 1 || achieved < 0.99*sh.openRate {
		out.note("open loop GENERATOR-BOUND: lag p99 %.3f ms, achieved %.0f of %.0f req/s — its latencies measure the generator", l["load.lag_p99_ms"], achieved, sh.openRate)
	} else {
		out.note("open loop not generator-bound: lag p99 %.3f ms, achieved %.1f%% of %.0f req/s offered", l["load.lag_p99_ms"], achieved/sh.openRate*100, sh.openRate)
	}
	verdict := "met"
	if l["load.p95_ms"] > sh.limitMs {
		verdict = "NOT met"
	}
	out.note("latency limit p95 ≤ %g ms at %.0f req/s over %d requests: %s", sh.limitMs, sh.openRate, open.requests, verdict)

	// Closed loop of 2·nproc callers: requests completed per second when
	// the server always has one waiting.
	sat := newGenerator(c, cfg.seed+2, 2*cfg.nproc, serveKeys, sh.m, nil, out)
	l["load.saturation_rps"] = sat.saturate(ctx, 2*time.Second)
	sat.restore(ctx)
	out.Attempted += gen.attempted() + sat.attempted()

	scrape1, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	delta := func(family string, fragments ...string) float64 {
		return seriesSum(scrape1, family, fragments...) - seriesSum(scrape0, family, fragments...)
	}
	l["serve.hits"] = delta("cup_serve_hits_total")
	l["serve.misses"] = delta("cup_serve_misses_total")
	l["serve.http_5xx"] = delta("cup_http_requests_total", `code="5`)
	l["serve.rejected_rate"] = delta("cup_serve_admission_rejected_total", `reason="rate"`)
	l["serve.rejected_overload"] = delta("cup_serve_admission_rejected_total", `reason="overload"`)
	l["serve.handler_s_sum"] = delta("cup_http_request_seconds_sum")
	l["client.write_backs"] = float64(c.Stats().WriteBacks)

	keys := make([]string, serveKeys)
	for i := range keys {
		keys[i] = keyName(i)
	}
	driveClient(l, c, keys)
	if err := driveServe(ctx, l, keys, sh.hop); err != nil {
		return err
	}
	if sh.m == (mix{}) {
		// Only where every request is a hit is CPU per request minus
		// the socket-free hit the net/http and system-call share.
		l["serve.http_overhead_us"] = out.E2E["op_cpu_us"] - l["serve.get_hit_ns"]/1e3
	}
	okeys := overlayKeys(keys)
	if err := driveLiveChan(ctx, l, okeys); err != nil {
		return err
	}
	driveObs(l, okeys)
	if sh.m.put > 0 {
		driveNode(l, okeys)
	}
	return nil
}

// overlayKeys converts request keys to the protocol's key type.
func overlayKeys(keys []string) []overlay.Key {
	out := make([]overlay.Key, len(keys))
	for i, k := range keys {
		out[i] = overlay.Key(k)
	}
	return out
}
