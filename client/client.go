// Package client is the smart half of CUP's serving layer, in the
// justcache mold: servers (cmd/cupd, internal/serve) stay small and
// dumb, and every caching decision lives here — rendezvous hashing
// over the host set, primary/replica selection, serial reads in
// rendezvous order, best-effort write-back to the primary, promise-based
// miss coordination (202 "you populate" / 409 "someone else is" /
// Retry-After), and bounded retry with jittered exponential backoff.
//
// A Client is safe for concurrent use; the load generator (cmd/cupload)
// drives one from hundreds of goroutines.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cupcore "cup/internal/cup"
	"cup/internal/serve"
)

// Entry is one index entry as served over HTTP (see serve.EntryJSON).
type Entry = serve.EntryJSON

// Sentinel results of the read path.
var (
	// ErrMiss: every ranked host missed and no fill was supplied.
	ErrMiss = errors.New("client: miss on every ranked host")
	// ErrBusy: another client held the population promise through every
	// retry round.
	ErrBusy = errors.New("client: population promise busy after retries")
)

// Config parameterizes a Client. Zero values fall back to the shared
// defaults table in internal/cup (DefaultClientFanout and friends), the
// same table the server's Retry-After arithmetic reads.
type Config struct {
	// Hosts is the server set ("host:port"; a scheme is prepended when
	// absent). Required, at least one.
	Hosts []string
	// Fanout is the rendezvous N: primary + N-1 replicas per key.
	Fanout int
	// Retries bounds GetOrFill's promise-wait rounds.
	Retries int
	// Backoff and BackoffCap shape the jittered exponential backoff
	// between rounds.
	Backoff    time.Duration
	BackoffCap time.Duration
	// HTTP overrides the transport (default: keep-alive pooled client
	// sized for load generation).
	HTTP *http.Client
	// Seed drives the backoff jitter (default 1, deterministic).
	Seed int64
	// WriteBack disables best-effort primary write-back when false...
	// it defaults to true via New.
	WriteBack bool
}

// Stats counts one client's traffic, readable concurrently.
type Stats struct {
	Hits       uint64 // GETs answered 200 by some ranked host
	Misses     uint64 // read paths that exhausted every ranked host
	Promises   uint64 // 202 grants this client won
	Busy       uint64 // 409 rounds waited out
	WriteBacks uint64 // best-effort primary write-backs issued
	Dropped    uint64 // write-backs dropped because the queue was full
	Errors     uint64 // transport or non-protocol HTTP failures
}

// Client implements the smart-client semantics over a host set.
type Client struct {
	hosts   []string
	fanout  int
	retries int
	backoff time.Duration
	cap     time.Duration
	http    *http.Client

	mu  sync.Mutex
	rng *rand.Rand

	stats struct {
		hits, misses, promises, busy, writeBacks, dropped, errors atomic.Uint64
	}

	wb     chan writeBack
	wbOnce sync.Once
	wbDone chan struct{}
	wbWG   sync.WaitGroup
}

// writeBack is one queued best-effort primary population.
type writeBack struct {
	host string
	key  string
	e    Entry
}

// New validates cfg and builds a Client. Callers should Close it to
// stop the write-back worker.
func New(cfg Config) (*Client, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("client: Config.Hosts must name at least one server")
	}
	hosts := make([]string, len(cfg.Hosts))
	for i, h := range cfg.Hosts {
		if h == "" {
			return nil, fmt.Errorf("client: empty host at index %d", i)
		}
		hosts[i] = h
	}
	fanout := cfg.Fanout
	if fanout < 0 {
		return nil, fmt.Errorf("client: fanout %d must be non-negative (0 = default)", fanout)
	}
	if fanout == 0 {
		fanout = cupcore.DefaultClientFanout
	}
	if fanout > len(hosts) {
		fanout = len(hosts)
	}
	retries := cfg.Retries
	if retries == 0 {
		retries = cupcore.DefaultClientRetries
	}
	backoff := cfg.Backoff
	if backoff == 0 {
		backoff = cupcore.DefaultClientBackoff
	}
	capd := cfg.BackoffCap
	if capd == 0 {
		capd = cupcore.DefaultClientBackoffCap
	}
	hc := cfg.HTTP
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0 // unlimited pool: the load generator reuses thousands
		tr.MaxIdleConnsPerHost = 1024
		hc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cupcore.DefaultSeed
	}
	c := &Client{
		hosts:   hosts,
		fanout:  fanout,
		retries: retries,
		backoff: backoff,
		cap:     capd,
		http:    hc,
		rng:     rand.New(rand.NewSource(seed)),
		wb:      make(chan writeBack, 256),
		wbDone:  make(chan struct{}),
	}
	c.wbWG.Add(1)
	go c.writeBackLoop()
	return c, nil
}

// Close stops the write-back worker; queued write-backs are dropped
// (they are best-effort by contract).
func (c *Client) Close() error {
	c.wbOnce.Do(func() { close(c.wbDone) })
	c.wbWG.Wait()
	return nil
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Hits:       c.stats.hits.Load(),
		Misses:     c.stats.misses.Load(),
		Promises:   c.stats.promises.Load(),
		Busy:       c.stats.busy.Load(),
		WriteBacks: c.stats.writeBacks.Load(),
		Dropped:    c.stats.dropped.Load(),
		Errors:     c.stats.errors.Load(),
	}
}

// RankHosts returns the key's hosts in rendezvous order, truncated to
// the fan-out: index 0 is the primary, the rest are replicas. Exported
// so tests and the load generator can reason about placement.
func (c *Client) RankHosts(key string) []string {
	ranked := rank(c.hosts, key)
	if len(ranked) > c.fanout {
		ranked = ranked[:c.fanout]
	}
	return ranked
}

// Fill fetches a key's value from origin when this client wins the
// population promise. It returns the entry to publish and its TTL.
type Fill func(ctx context.Context) (Entry, time.Duration, error)

// Get reads key: serial GETs in rendezvous order, first 200 wins. A hit
// served by a replica (not the primary) schedules a best-effort
// write-back of the entry to the primary. All ranked hosts missing is
// ErrMiss.
func (c *Client) Get(ctx context.Context, key string) ([]Entry, error) {
	entries, _, err := c.get(ctx, key, c.RankHosts(key))
	return entries, err
}

// get is the serial read; it reports which ranked index answered.
func (c *Client) get(ctx context.Context, key string, ranked []string) ([]Entry, int, error) {
	for i, host := range ranked {
		entries, status, err := c.getFrom(ctx, host, key)
		if err != nil {
			if ctx.Err() != nil {
				return nil, -1, ctx.Err()
			}
			c.stats.errors.Add(1)
			continue // transient host failure: fall through to the next replica
		}
		if status == http.StatusOK {
			c.stats.hits.Add(1)
			if i > 0 && len(entries) > 0 {
				c.scheduleWriteBack(ranked[0], key, entries[0])
			}
			return entries, i, nil
		}
		// 404 and shed/throttle answers both mean "no value here".
	}
	c.stats.misses.Add(1)
	return nil, -1, ErrMiss
}

// GetOrFill reads key and, on a full miss, runs the justcache herd
// path: POST /promise to every ranked host in parallel, then let the
// highest-ranked host that answered decide. Its grant makes this client
// fetch from origin via fill and PUT the result to every granting host;
// its "present" triggers a re-GET starting there; its busy answer waits
// out its Retry-After (jittered) before retrying — at most Retries
// rounds before ErrBusy. Every client racing on a key defers to the
// same host, so one lease elects one filler; a grant won only on a
// lower-ranked host authorises nothing and lapses with its lease.
func (c *Client) GetOrFill(ctx context.Context, key string, fill Fill) ([]Entry, error) {
	ranked := c.RankHosts(key)
	entries, _, err := c.get(ctx, key, ranked)
	if err == nil {
		return entries, nil
	}
	if !errors.Is(err, ErrMiss) {
		return nil, err
	}
	if fill == nil {
		return nil, ErrMiss
	}

	for attempt := 0; attempt <= c.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		verdicts := c.postPromises(ctx, key, ranked)
		decider := -1
		for i, v := range verdicts {
			if v.status != 0 {
				decider = i
				break
			}
		}
		var wait time.Duration
		switch {
		case decider < 0:
			c.stats.busy.Add(1) // nobody answered: back off and retry
		case verdicts[decider].status == http.StatusAccepted:
			c.stats.promises.Add(1)
			e, ttl, err := fill(ctx)
			if err != nil {
				return nil, fmt.Errorf("client: fill %q: %w", key, err)
			}
			e.TTL = ttl.Seconds()
			var putErr error
			put := 0
			for i, v := range verdicts {
				if v.status != http.StatusAccepted {
					continue
				}
				if err := c.putTo(ctx, ranked[i], key, e); err != nil {
					putErr = err
					continue
				}
				put++
			}
			if put == 0 {
				return nil, fmt.Errorf("client: populate %q: %w", key, putErr)
			}
			return []Entry{e}, nil
		case verdicts[decider].status == http.StatusOK:
			// The key appeared during the race: read it back, preferring
			// the host that reported it.
			present := ranked[decider]
			reordered := append([]string{present}, without(ranked, present)...)
			if entries, _, err := c.get(ctx, key, reordered); err == nil {
				return entries, nil
			}
		default:
			c.stats.busy.Add(1)
			wait = verdicts[decider].retryAfter
		}
		if wait <= 0 {
			wait = c.backoffFor(attempt)
		}
		if err := sleepCtx(ctx, c.jitter(wait)); err != nil {
			return nil, err
		}
		if entries, _, err := c.get(ctx, key, ranked); err == nil {
			return entries, nil
		}
	}
	return nil, ErrBusy
}

// Put publishes one entry for key to its primary (and is the write half
// of the population protocol). ttl overrides e.TTL when positive.
func (c *Client) Put(ctx context.Context, key string, e Entry, ttl time.Duration) error {
	if ttl > 0 {
		e.TTL = ttl.Seconds()
	}
	return c.putTo(ctx, c.RankHosts(key)[0], key, e)
}

// Delete unpublishes (key, replica) from every ranked host that might
// serve it.
func (c *Client) Delete(ctx context.Context, key string, replica int) error {
	var firstErr error
	for _, host := range c.RankHosts(key) {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
			c.url(host, key)+"?replica="+strconv.Itoa(replica), nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		drain(resp)
		if resp.StatusCode != http.StatusNoContent && firstErr == nil {
			firstErr = fmt.Errorf("client: delete %q from %s: %s", key, host, resp.Status)
		}
	}
	return firstErr
}

// promiseVerdict is one ranked host's answer in a promise round. status
// is 0 when the host gave no protocol answer (transport failure or an
// unexpected code); retryAfter is the wait a busy answer asked for.
type promiseVerdict struct {
	status     int
	retryAfter time.Duration
}

// postPromises runs the parallel promise round and returns the verdicts
// in ranked order.
func (c *Client) postPromises(ctx context.Context, key string, ranked []string) []promiseVerdict {
	verdicts := make([]promiseVerdict, len(ranked))
	var wg sync.WaitGroup
	for i, host := range ranked {
		wg.Add(1)
		go func(v *promiseVerdict, host string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(host, key)+"/promise", nil)
			if err != nil {
				c.stats.errors.Add(1)
				return
			}
			resp, err := c.http.Do(req) // bound by ctx, so the round is too
			if err != nil {
				c.stats.errors.Add(1)
				return
			}
			drain(resp)
			switch resp.StatusCode {
			case http.StatusOK, http.StatusAccepted,
				http.StatusConflict, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				v.status = resp.StatusCode
				if ms, err := strconv.ParseInt(resp.Header.Get("X-Retry-After-Ms"), 10, 64); err == nil {
					v.retryAfter = time.Duration(ms) * time.Millisecond
				} else if secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil {
					v.retryAfter = time.Duration(secs) * time.Second
				}
			}
		}(&verdicts[i], host)
	}
	wg.Wait()
	return verdicts
}

// getFrom issues one GET.
func (c *Client) getFrom(ctx context.Context, host, key string) ([]Entry, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(host, key), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var body serve.GetResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, 0, err
	}
	return body.Entries, http.StatusOK, nil
}

// putTo issues one PUT.
func (c *Client) putTo(ctx context.Context, host, key string, e Entry) error {
	body, err := json.Marshal(serve.PutRequest{Replica: e.Replica, Addr: e.Addr, TTL: e.TTL})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(host, key), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("client: put %q to %s: %s", key, host, resp.Status)
	}
	return nil
}

// scheduleWriteBack enqueues a best-effort primary population; a full
// queue drops it (improving future hit rate is optional, blocking the
// read path is not).
func (c *Client) scheduleWriteBack(primary, key string, e Entry) {
	select {
	case c.wb <- writeBack{host: primary, key: key, e: e}:
	default:
		c.stats.dropped.Add(1)
	}
}

// writeBackLoop drains the write-back queue on one goroutine.
func (c *Client) writeBackLoop() {
	defer c.wbWG.Done()
	for {
		select {
		case <-c.wbDone:
			return
		case wb := <-c.wb:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := c.putTo(ctx, wb.host, wb.key, wb.e); err == nil {
				c.stats.writeBacks.Add(1)
			} else {
				c.stats.errors.Add(1)
			}
			cancel()
		}
	}
}

// backoffFor is the attempt'th exponential backoff, capped.
func (c *Client) backoffFor(attempt int) time.Duration {
	d := c.backoff << uint(attempt)
	if d > c.cap || d <= 0 {
		d = c.cap
	}
	return d
}

// jitter spreads a wait over [d/2, d) so a herd released by one expiring
// promise does not re-collide in lockstep.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	c.mu.Lock()
	j := c.rng.Int63n(int64(d) / 2)
	c.mu.Unlock()
	return d/2 + time.Duration(j)
}

// url builds the /v1 key URL for a host.
func (c *Client) url(host, key string) string {
	base := host
	if len(base) < 7 || (base[:7] != "http://" && (len(base) < 8 || base[:8] != "https://")) {
		base = "http://" + base
	}
	return base + "/v1/key/" + key
}

// drain consumes and closes a response body so the connection returns
// to the keep-alive pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// without filters one host out of a ranking.
func without(hosts []string, drop string) []string {
	out := make([]string, 0, len(hosts))
	for _, h := range hosts {
		if h != drop {
			out = append(out, h)
		}
	}
	return out
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
