package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"cup/client"
)

// The load generator drives the smart client from one goroutine per
// caller. A phase is either closed loop — every caller issues its next
// request when the previous one completes; with one caller each request
// meets an idle server, and its latency is the service time — or open
// loop: the i-th request is due at start + i/rate whether or not earlier
// ones finished, and its latency runs from that due time, so a stalled
// server shows as queueing instead of as a thinner load.

// spinWindow is how long before a request's due time the generator
// stops sleeping and spins on the clock. time.Sleep alone overshoots —
// by tens of microseconds on most kernels, by up to 1.1 ms on the
// reference box, whose timers all round up to that — and the overshoot
// would sit in every latency sample. The window is twice the worst
// overshoot seen.
const spinWindow = 2500 * time.Microsecond

// reputDelay is how long a deleted key stays deleted before its owner
// publishes it again: long enough for the Delete to finish propagating,
// since the goroutine transport's per-message timers do not order a
// Delete before a later Append.
const reputDelay = 50 * time.Millisecond

// neverKeys is how many names of keys never published a worker reads.
const neverKeys = 4096

// mix is a traffic mix in shares of requests; the rest are reads of
// live keys.
type mix struct {
	miss, put, del float64
}

type opKind int

const (
	opGet opKind = iota
	opGetMiss
	opPut
	opDelete
)

var opNames = [...]string{"client.get", "client.get", "client.put", "client.delete"}

// parked is a deleted key waiting to be published again.
type parked struct {
	slot  int
	after time.Time
}

// genWorker is one connection's worth of load. It owns the keys whose
// index is ≡ id (mod workers): with a single writer per key and its
// requests issued one after another, the worker always knows whether a
// key is live and which addresses were ever written to it.
type genWorker struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	m    mix
	c    *client.Client
	log  *spanLog

	slots   int      // keys owned
	keys    []string // per slot: the key's name
	version []int    // per slot: puts so far
	gone    []bool
	reput   []parked

	out *outcome // failures only; guarded by mu
	mu  *sync.Mutex

	attempted int
}

func keyName(i int) string { return fmt.Sprintf("k%d", i) }

func (w *genWorker) addr(slot int) string {
	return fmt.Sprintf("%s.v%d", w.keys[slot], w.version[slot])
}

func (w *genWorker) failf(format string, args ...any) {
	w.mu.Lock()
	w.out.fail(format, args...)
	w.mu.Unlock()
}

// liveSlot returns slot, or the next one after it that is not deleted.
func (w *genWorker) liveSlot(slot int) int {
	for i := 0; i < w.slots; i++ {
		if s := (slot + i) % w.slots; !w.gone[s] {
			return s
		}
	}
	return slot // every key deleted: cannot happen with del < put
}

// next draws the next operation of the mix.
func (w *genWorker) next(now time.Time) (opKind, int) {
	r := w.rng.Float64()
	switch {
	case r < w.m.miss:
		return opGetMiss, 0
	case r < w.m.miss+w.m.put:
		// A deleted key whose delay has passed is published again in
		// place of refreshing a live one.
		if len(w.reput) > 0 && now.After(w.reput[0].after) {
			slot := w.reput[0].slot
			w.reput = w.reput[1:]
			return opPut, slot
		}
		return opPut, w.liveSlot(w.rng.Intn(w.slots))
	case r < w.m.miss+w.m.put+w.m.del:
		return opDelete, w.liveSlot(w.rng.Intn(w.slots))
	default:
		return opGet, w.liveSlot(int(w.zipf.Uint64()))
	}
}

// do issues one operation and checks its answer.
func (w *genWorker) do(ctx context.Context, kind opKind, slot int) {
	w.attempted++
	req := int64(w.id+1)<<32 | int64(w.attempted)
	s := w.log.begin(opNames[kind], 0, req)
	if w.log != nil {
		ctx = context.WithValue(ctx, spanRefKey{}, &spanRef{w.log, w.log.id(s), req})
	}
	key := w.keys[slot]
	switch kind {
	case opGet:
		entries, err := w.c.Get(ctx, key)
		switch {
		case errors.Is(err, client.ErrMiss):
			w.failf("get %s: 404 for a live key", key)
		case err != nil:
			w.failf("get %s: %v", key, err)
		case len(entries) == 0:
			w.failf("get %s: 200 with no entries", key)
		default:
			for _, e := range entries {
				if !strings.HasPrefix(e.Addr, key+".v") {
					w.failf("get %s: address %q was never written for it", key, e.Addr)
					break
				}
			}
		}
	case opGetMiss:
		// A pool of names, so the state the server keeps for keys it was
		// asked about stops growing and its peak RSS is not the run's speed.
		key = fmt.Sprintf("never-%d-%d", w.id, w.attempted%neverKeys)
		if _, err := w.c.Get(ctx, key); !errors.Is(err, client.ErrMiss) {
			w.failf("get %s: want a miss for a key never published, got %v", key, err)
		}
	case opPut:
		w.version[slot]++
		e := client.Entry{Replica: 0, Addr: w.addr(slot)}
		if err := w.c.Put(ctx, key, e, time.Hour); err != nil {
			w.failf("put %s: %v", key, err)
		}
		w.gone[slot] = false
	case opDelete:
		if err := w.c.Delete(ctx, key, 0); err != nil {
			w.failf("delete %s: %v", key, err)
		}
		w.gone[slot] = true
		w.reput = append(w.reput, parked{slot, time.Now().Add(reputDelay)})
	}
	w.log.end(s)
}

// waitUntil sleeps to within spinWindow of due, then spins, offering
// the core to any other runnable thread on every turn: the server shares
// it. The spin does not yield to other goroutines, so an open loop has
// one worker.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		// The call cannot fail; it returns at once when nothing else
		// wants the core.
		_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// generator is the set of workers sharing one client.
type generator struct {
	workers []*genWorker
	c       *client.Client
	mu      sync.Mutex
}

// newGenerator builds nproc workers over keys live keys. Each worker's
// request stream is drawn from seed and its index alone; tr, when not
// nil, records every request's spans.
func newGenerator(c *client.Client, seed int64, nproc, keys int, m mix, tr *tracer, out *outcome) *generator {
	g := &generator{c: c}
	for id := 0; id < nproc; id++ {
		slots := (keys - id + nproc - 1) / nproc
		rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
		keyNames := make([]string, slots)
		for slot := range keyNames {
			keyNames[slot] = keyName(id + slot*nproc)
		}
		g.workers = append(g.workers, &genWorker{
			id: id, rng: rng, m: m, c: c, log: tr.log(),
			zipf:  rand.NewZipf(rng, 1.1, 1, uint64(slots-1)),
			slots: slots, keys: keyNames, version: make([]int, slots), gone: make([]bool, slots),
			out: out, mu: &g.mu,
		})
	}
	return g
}

// each runs fn on every worker concurrently and waits for all.
func (g *generator) each(fn func(w *genWorker)) {
	var wg sync.WaitGroup
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *genWorker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// preload publishes every key once.
func (g *generator) preload(ctx context.Context) {
	g.each(func(w *genWorker) {
		for slot := 0; slot < w.slots; slot++ {
			w.do(ctx, opPut, slot)
		}
	})
}

// touch reads every key once. A published key is cached at its serving
// entry node only after the first read has walked the query path, so
// without this the tail of the Zipf draw meets cold keys mid-phase.
func (g *generator) touch(ctx context.Context) {
	g.each(func(w *genWorker) {
		for slot := 0; slot < w.slots; slot++ {
			w.do(ctx, opGet, slot)
		}
	})
}

// phase is the measured result of one open- or closed-loop phase.
type phase struct {
	requests int
	wall     time.Duration
	// lat and lag are in arrival order (open loop).
	lat, lag []time.Duration
}

// openLoop offers rate requests per second for d from the first worker.
func (g *generator) openLoop(ctx context.Context, rate float64, d time.Duration) phase {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(rate * d.Seconds())
	p := phase{requests: total, lat: make([]time.Duration, total), lag: make([]time.Duration, total)}
	start := time.Now().Add(10 * time.Millisecond) // so arrival 0 is not already late
	w := g.workers[0]
	var free time.Time // when the previous request finished
	for i := 0; i < total && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		sent := time.Now()
		kind, slot := w.next(sent)
		w.do(ctx, kind, slot)
		done := time.Now()
		p.lat[i] = done.Sub(due)
		// A request held up behind its predecessor is the server's
		// backlog, already charged to its latency; the generator is late
		// only past the moment it could send.
		if free.After(due) {
			due = free
		}
		p.lag[i] = sent.Sub(due)
		free = done
	}
	p.wall = time.Since(start)
	return p
}

// pinged is what a closed-loop phase of one caller measured. Times are
// as measured; the caller divides them by speed.factor().
type pinged struct {
	// opUs is the median over the windows of the window's median latency,
	// in µs, on published keys — hits, puts and deletes; a read of a key
	// never published is a query-path walk, and its latencies are apart.
	opUs float64
	// cpuUs is the server's CPU time over the phase per request of any kind.
	cpuUs      float64
	speed      boxSpeed // of the box over the phase: see calib.go
	live, miss latencies
}

// pingPong has the first worker issue requests back to back for d, in
// windows of length every, with a sample of the box's speed after each.
func (g *generator) pingPong(ctx context.Context, d, every time.Duration, srvCPU func() (time.Duration, error)) (*pinged, error) {
	w := g.workers[0]
	var (
		p50s []float64
		cpu  time.Duration
	)
	r := pinged{speed: boxSpeed{nominal: serveRef}}
	start := time.Now()
	for n := 1; time.Since(start) < d && ctx.Err() == nil; n++ {
		from := len(r.live)
		cpu0, err := srvCPU()
		if err != nil {
			return nil, err
		}
		for end, now := start.Add(time.Duration(n)*every), time.Now(); now.Before(end); {
			kind, slot := w.next(now)
			w.do(ctx, kind, slot)
			done := time.Now()
			if kind == opGetMiss {
				r.miss = append(r.miss, done.Sub(now))
			} else {
				r.live = append(r.live, done.Sub(now))
			}
			now = done
		}
		cpu1, err := srvCPU()
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		if got := r.live[from:]; len(got) > 0 {
			p50s = append(p50s, percentile(got.sortedMs(), 0.5)*1e3)
		}
		r.speed.sample()
	}
	if len(p50s) == 0 {
		return nil, errors.New("the closed loop completed no request")
	}
	r.opUs = median(p50s)
	r.cpuUs = float64(cpu.Nanoseconds()) / 1e3 / float64(len(r.live)+len(r.miss))
	return &r, ctx.Err()
}

// saturate has every worker issue requests back to back for d and
// returns the requests completed per second.
func (g *generator) saturate(ctx context.Context, d time.Duration) float64 {
	var (
		mu    sync.Mutex
		total int
	)
	start := time.Now()
	g.each(func(w *genWorker) {
		n := 0
		for now := time.Now(); now.Sub(start) < d && ctx.Err() == nil; now = time.Now() {
			kind, slot := w.next(now)
			w.do(ctx, kind, slot)
			n++
		}
		mu.Lock()
		total += n
		mu.Unlock()
	})
	return float64(total) / time.Since(start).Seconds()
}

// restore publishes every deleted key again, so a phase starts from the
// full key set.
func (g *generator) restore(ctx context.Context) {
	g.each(func(w *genWorker) {
		for _, p := range w.reput {
			time.Sleep(time.Until(p.after))
			w.do(ctx, opPut, p.slot)
		}
		w.reput = nil
	})
}

func (g *generator) attempted() int {
	n := 0
	for _, w := range g.workers {
		n += w.attempted
	}
	return n
}

// spanRef tells the tracing RoundTripper which span a request belongs
// to; it travels in the request context.
type spanRef struct {
	log    *spanLog
	parent int64
	req    int64
}

type spanRefKey struct{}

// tracedTransport records an http.roundtrip span under the client call
// that caused it. RoundTrip runs on the caller's goroutine, so the span
// goes into that worker's own log.
type tracedTransport struct{ next http.RoundTripper }

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, _ := r.Context().Value(spanRefKey{}).(*spanRef)
	if ref == nil {
		return t.next.RoundTrip(r)
	}
	s := ref.log.begin("http.roundtrip", ref.parent, ref.req)
	resp, err := t.next.RoundTrip(r)
	ref.log.end(s)
	return resp, err
}

// newHTTPClient caps the generator at one connection per worker.
func newHTTPClient(conns int) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConns:        conns * 2,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tracedTransport{tr}, Timeout: 10 * time.Second}, tr
}
