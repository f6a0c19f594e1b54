// Package serve is CUP's HTTP serving layer: a small, dumb front end
// (in the justcache sense — servers stay simple, clients are smart)
// mounted on a running deployment, turning controlled update
// propagation into a deployable update-propagation cache service.
//
// Surface:
//
//	GET    /v1/key/{key}          read the key's index entries
//	PUT    /v1/key/{key}          publish a replica entry (populate)
//	DELETE /v1/key/{key}          unpublish a replica entry
//	POST   /v1/key/{key}/promise  coordinate miss population
//
// A GET funnels into CUP's query path at a deterministic per-key entry
// node, so the protocol's query coalescing (§2.4's pending-first-update
// flag) is the server-side thundering-herd guard: any number of
// concurrent misses for one key produce exactly one upstream lookup.
// The promise endpoint implements the justcache population protocol on
// top — 200 the key is present, 202 the caller holds the population
// lease ("you upload"), 409 someone else does (with Retry-After).
//
// A GET hit is a store read (the justcache rule): the backend answers
// it from the entry node's published view without a trip through the
// peer's mailbox, and the handler's hit branch arms no timer, walks no
// peer table and encodes its body by hand into a pooled buffer.
//
// Two admission guards keep external load from swamping the
// propagation tree (the LOCKSS lesson: rate-bound what peers may
// inject, at the point of contention): update-injecting requests (PUT,
// DELETE, promise grants) draw from a token bucket and are rejected
// with 429 when it runs dry, and requests shed with 503 while the
// mailbox they are about to enter sits above an occupancy threshold —
// for a GET the entry node's own inbox, which one hot key can fill
// while the sum over all peers reads 1/N; for writes, which fan out
// over the tree, the sum. Reads need no bucket — coalescing already
// bounds read-side tree load to one in-flight query per key.
//
// The package is deliberately ignorant of the façade: it serves any
// Backend, and the cup package adapts a Deployment to one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cup/internal/cache"
	cupcore "cup/internal/cup"
	"cup/internal/obs"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Backend is the deployment surface the server needs: the client API of
// a cup.Deployment, plus the load signals the admission guards read.
type Backend interface {
	// Size returns the number of peers (entry nodes are picked mod it).
	Size() int
	// Now returns the deployment clock in virtual seconds; entry TTLs
	// are reported relative to it.
	Now() sim.Time
	// LookupAt posts a client query at the given entry node and waits.
	LookupAt(ctx context.Context, at overlay.NodeID, key overlay.Key) ([]cache.Entry, error)
	// Publish registers (key, replica) served at addr for lifetime.
	Publish(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error
	// Unpublish deletes (key, replica).
	Unpublish(ctx context.Context, key overlay.Key, replica int) error
	// Load reports live inbox occupancy and capacity; (0, 0) means
	// unknown (e.g. the simulated transport) and disables shedding.
	Load() (used, capacity int)
}

// NodeLoader is an optional Backend capability: the occupancy and
// capacity of one peer's inbox. A backend that has it lets the GET
// overload guard watch the entry node's mailbox — the queue the request
// is about to join — instead of the sum Load reports. (0, 0) means
// unknown and disables shedding, as for Load.
type NodeLoader interface {
	NodeLoad(at overlay.NodeID) (used, capacity int)
}

// Config parameterizes a Server. Zero values fall back to the shared
// defaults table in internal/cup, like every other layer.
type Config struct {
	// Backend is the deployment to serve (required).
	Backend Backend
	// Registry receives the serving metrics; nil uses a private one.
	Registry *obs.Registry
	// PromiseTTL is the population-lease duration (default
	// cup.DefaultPromiseTTL).
	PromiseTTL time.Duration
	// QueryTimeout bounds one GET's trip through the query path
	// (default cup.DefaultServeQueryTimeout).
	QueryTimeout time.Duration
	// AdmitRate and AdmitBurst shape the write-path token bucket
	// (defaults cup.DefaultAdmitRate / cup.DefaultAdmitBurst). A
	// negative AdmitRate disables the bucket.
	AdmitRate  float64
	AdmitBurst int
	// ShedThreshold is the inbox occupancy fraction above which all
	// requests shed with 503 (default cup.DefaultShedThreshold).
	ShedThreshold float64
	// now overrides the wall clock (tests).
	now func() time.Time
}

// Server is the HTTP serving layer. Register mounts its routes on a
// mux; Close stops its background janitor.
type Server struct {
	b Backend
	// nodes is b's per-node load signal, nil when it has none.
	nodes    NodeLoader
	reg      *obs.Registry
	promises *promises
	bucket   *bucket
	shedAt   float64
	queryTO  time.Duration
	now      func() time.Time

	hits            *obs.Counter
	misses          *obs.Counter
	rejectedRate    *obs.Counter
	rejectedLoad    *obs.Counter
	promiseOutcomes map[promiseVerdict]*obs.Counter

	routes map[string]*routeMetrics
	get    getMetrics

	done    chan struct{}
	janitor sync.WaitGroup
	once    sync.Once
}

// routeMetrics carries one route's pre-resolved handles so the request
// path never takes the registry lock.
type routeMetrics struct {
	lat   *obs.Histogram
	codes map[int]*obs.Counter
}

// getMetrics is the GET route's series resolved to fields, so a hit
// records its latency and status without a map lookup.
type getMetrics struct {
	lat                                 *obs.Histogram
	ok, notFound, failed, shed, timeout *obs.Counter // 200, 404, 500, 503, 504
}

// Metric names the serving layer registers — documented in the README
// catalog and asserted by the CI serving-smoke job.
const (
	MetricHTTPRequests = "cup_http_requests_total"
	MetricHTTPLatency  = "cup_http_request_seconds"
	MetricHits         = "cup_serve_hits_total"
	MetricMisses       = "cup_serve_misses_total"
	MetricPromises     = "cup_serve_promises_total"
	MetricRejected     = "cup_serve_admission_rejected_total"
	MetricPromisesOpen = "cup_serve_promises_open"
)

// New builds a Server over cfg.Backend and registers its metric series.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: Config.Backend is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	ttl := cfg.PromiseTTL
	if ttl == 0 {
		ttl = cupcore.DefaultPromiseTTL
	}
	qto := cfg.QueryTimeout
	if qto == 0 {
		qto = cupcore.DefaultServeQueryTimeout
	}
	rate := cfg.AdmitRate
	if rate == 0 {
		rate = cupcore.DefaultAdmitRate
	}
	burst := cfg.AdmitBurst
	if burst <= 0 {
		burst = cupcore.DefaultAdmitBurst
	}
	shed := cfg.ShedThreshold
	if shed <= 0 {
		shed = cupcore.DefaultShedThreshold
	}

	s := &Server{
		b:        cfg.Backend,
		reg:      reg,
		promises: newPromises(ttl, now),
		shedAt:   shed,
		queryTO:  qto,
		now:      now,
		done:     make(chan struct{}),
	}
	s.nodes, _ = cfg.Backend.(NodeLoader)
	if rate > 0 {
		s.bucket = newBucket(rate, float64(burst), now())
	}

	s.hits = reg.Counter(MetricHits, "GETs answered with at least one fresh index entry.")
	s.misses = reg.Counter(MetricMisses, "GETs that found no fresh entries (404).")
	s.rejectedRate = reg.Counter(MetricRejected,
		"Requests rejected by the admission guards.", obs.Label{Key: "reason", Value: "rate"})
	s.rejectedLoad = reg.Counter(MetricRejected,
		"Requests rejected by the admission guards.", obs.Label{Key: "reason", Value: "overload"})
	s.promiseOutcomes = map[promiseVerdict]*obs.Counter{}
	for _, v := range []promiseVerdict{promisePresent, promiseGranted, promiseBusy} {
		s.promiseOutcomes[v] = reg.Counter(MetricPromises,
			"Population-promise requests by outcome (justcache 200/202/409).",
			obs.Label{Key: "outcome", Value: v.String()})
	}
	reg.GaugeFunc(MetricPromisesOpen,
		"Population promises currently granted and unresolved.",
		func() float64 { return float64(s.promises.open()) })

	s.routes = make(map[string]*routeMetrics)
	for route, codes := range map[string][]int{
		"get":     {200, 404, 500, 503, 504},
		"put":     {204, 400, 429, 500, 503, 504},
		"delete":  {204, 400, 429, 500, 503, 504},
		"promise": {200, 202, 409, 429, 503},
	} {
		rm := &routeMetrics{
			lat: reg.Histogram(MetricHTTPLatency,
				"Serving-layer request latency in seconds.",
				obs.DefBuckets, obs.Label{Key: "route", Value: route}),
			codes: make(map[int]*obs.Counter, len(codes)),
		}
		for _, code := range codes {
			rm.codes[code] = reg.Counter(MetricHTTPRequests,
				"Serving-layer requests by route and status code.",
				obs.Label{Key: "route", Value: route},
				obs.Label{Key: "code", Value: strconv.Itoa(code)})
		}
		s.routes[route] = rm
	}
	get := s.routes["get"]
	s.get = getMetrics{
		lat: get.lat,
		ok:  get.codes[200], notFound: get.codes[404], failed: get.codes[500],
		shed: get.codes[503], timeout: get.codes[504],
	}

	s.janitor.Add(1)
	go s.sweepLoop()
	return s, nil
}

// Register mounts the /v1 routes on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/key/{key}", s.handleGet)
	mux.HandleFunc("PUT /v1/key/{key}", s.handlePut)
	mux.HandleFunc("DELETE /v1/key/{key}", s.handleDelete)
	mux.HandleFunc("POST /v1/key/{key}/promise", s.handlePromise)
}

// Close stops the promise janitor. Listeners are owned by the caller.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.done) })
	s.janitor.Wait()
	return nil
}

// sweepLoop prunes expired promise records so an abandoned grant or a
// long-gone resolved key cannot grow the table without bound.
func (s *Server) sweepLoop() {
	defer s.janitor.Done()
	tick := time.NewTicker(s.promises.ttl)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			s.promises.sweep()
		}
	}
}

// EntryNode maps a key onto its deterministic serving entry node. Every
// GET for one key enters the overlay at the same peer, so concurrent
// misses meet at one pending-first-update flag and coalesce — this
// choice is what turns CUP's §2.4 machinery into the server's
// thundering-herd guard. The hash also spreads distinct keys across
// peers, so serving load is not funneled through one mailbox.
//
// The hash is FNV-1a (64-bit), computed over the string in place.
func EntryNode(key overlay.Key, size int) overlay.NodeID {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return overlay.NodeID(h % uint64(size))
}

// EntryJSON is one index entry on the serving wire. TTL is the entry's
// remaining freshness in (virtual) seconds at response time.
type EntryJSON struct {
	Replica int     `json:"replica"`
	Addr    string  `json:"addr"`
	TTL     float64 `json:"ttl_s"`
}

// GetResponse is the GET /v1/key/{key} body.
type GetResponse struct {
	Key     string      `json:"key"`
	Entries []EntryJSON `json:"entries"`
}

// PutRequest is the PUT /v1/key/{key} body.
type PutRequest struct {
	Replica int     `json:"replica"`
	Addr    string  `json:"addr"`
	TTL     float64 `json:"ttl_s"`
}

// PromiseResponse is the POST /v1/key/{key}/promise body.
type PromiseResponse struct {
	// Status is "present", "granted", or "busy".
	Status string `json:"status"`
	// RetryAfterMs accompanies "busy" and "granted": for busy it is the
	// residual lease; for granted, the lease the caller now holds.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// observe finishes one request's accounting.
func (s *Server) observe(route string, code int, start time.Time) {
	rm := s.routes[route]
	rm.lat.Observe(s.now().Sub(start).Seconds())
	if c, ok := rm.codes[code]; ok {
		c.Inc()
	}
}

// shed applies the inbox-occupancy guard to a request that fans out over
// the tree (a write, a promise): it reports true after writing the 503
// when the live mailboxes together are too full to take more work.
func (s *Server) shed(w http.ResponseWriter) bool {
	used, capacity := s.b.Load()
	return s.shedOver(w, used, capacity)
}

// shedOver writes the 503 and reports true when used of capacity is at
// or past the occupancy threshold.
func (s *Server) shedOver(w http.ResponseWriter, used, capacity int) bool {
	if capacity == 0 || float64(used) < s.shedAt*float64(capacity) {
		return false
	}
	s.rejectedLoad.Inc()
	retryAfter(w, s.promises.ttl)
	http.Error(w, "serving shed: live inboxes over occupancy threshold", http.StatusServiceUnavailable)
	return true
}

// admit applies the write-path token bucket; it reports true after
// writing the 429 when the caller must back off.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.bucket == nil {
		return false
	}
	ok, wait := s.bucket.take(s.now())
	if ok {
		return false
	}
	s.rejectedRate.Inc()
	retryAfter(w, wait)
	http.Error(w, "admission rate exceeded", http.StatusTooManyRequests)
	return true
}

// retryAfter sets both the standard coarse header and the millisecond
// one the smart client prefers.
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(d.Milliseconds(), 10))
}

// handleGet serves GET /v1/key/{key}. The hit — the request CUP exists
// to make common — runs straight through this function: an O(1) guard on
// the entry node's inbox, a lookup the backend answers from the entry
// node's published view, a body appended into a pooled buffer, two
// pre-resolved metric handles. Everything else leaves through getFailed.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	key := overlay.Key(r.PathValue("key"))
	at := EntryNode(key, s.b.Size())
	// The guard reads the mailbox this request would join: one hot key
	// can fill its entry node's inbox while the sum over all peers reads
	// 1/N, and a guard watching the sum would admit into the backlog.
	var used, capacity int
	if s.nodes != nil {
		used, capacity = s.nodes.NodeLoad(at)
	} else {
		used, capacity = s.b.Load()
	}
	if s.shedOver(w, used, capacity) {
		s.get.done(s.get.shed, s.now().Sub(start))
		return
	}
	// The query timeout bounds a lookup that waits; a hit never waits, and
	// a context nobody waits on arms no timer.
	ctx := &lazyDeadline{Context: r.Context(), timeout: s.queryTO} // the request's one context, in place of WithTimeout's four objects and a runtime timer
	entries, err := s.b.LookupAt(ctx, at, key)
	ctx.stop()
	if err != nil || len(entries) == 0 {
		s.getFailed(ctx, w, err, start)
		return
	}
	s.hits.Inc()
	buf := getBufs.Get().(*getBuf)
	buf.b = appendGetResponse(buf.b[:0], key, entries, s.b.Now())
	w.Header()["Content-Type"] = jsonContentType // net/http's own header map; the value slice is shared, not built per request
	_, _ = w.Write(buf.b)
	getBufs.Put(buf)
	s.get.done(s.get.ok, s.now().Sub(start))
}

// getFailed finishes a GET that did not hit: a lookup error (504 when
// the query timeout or the client's own cancellation ended it, or the
// backend reports a deadline of its own; else 500) or a miss (404).
func (s *Server) getFailed(ctx context.Context, w http.ResponseWriter, err error, start time.Time) {
	switch {
	case err == nil:
		s.misses.Inc()
		http.Error(w, "miss", http.StatusNotFound)
		s.get.done(s.get.notFound, s.now().Sub(start))
	case ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, fmt.Sprintf("lookup: %v", err), http.StatusGatewayTimeout)
		s.get.done(s.get.timeout, s.now().Sub(start))
	default:
		http.Error(w, fmt.Sprintf("lookup: %v", err), http.StatusInternalServerError)
		s.get.done(s.get.failed, s.now().Sub(start))
	}
}

// done records one GET's latency and status.
func (g *getMetrics) done(code *obs.Counter, took time.Duration) {
	g.lat.Observe(took.Seconds())
	code.Inc()
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	code := http.StatusNoContent
	defer func() { s.observe("put", code, start) }()
	if s.shed(w) {
		code = http.StatusServiceUnavailable
		return
	}
	if s.admit(w) {
		code = http.StatusTooManyRequests
		return
	}
	key := overlay.Key(r.PathValue("key"))
	var req PutRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		code = http.StatusBadRequest
		http.Error(w, fmt.Sprintf("bad body: %v", err), code)
		return
	}
	if req.Replica < 0 || req.Addr == "" || req.TTL <= 0 {
		code = http.StatusBadRequest
		http.Error(w, "need replica >= 0, non-empty addr, ttl_s > 0", code)
		return
	}
	ttl := time.Duration(req.TTL * float64(time.Second))
	if err := s.b.Publish(r.Context(), key, req.Replica, req.Addr, ttl); err != nil {
		code = http.StatusInternalServerError
		if r.Context().Err() != nil {
			code = http.StatusGatewayTimeout
		}
		http.Error(w, fmt.Sprintf("publish: %v", err), code)
		return
	}
	// A successful populate resolves the key's open promise: subsequent
	// POST /promise callers learn the key is present instead of racing
	// to refill it.
	s.promises.resolve(string(key), ttl)
	w.WriteHeader(code)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	code := http.StatusNoContent
	defer func() { s.observe("delete", code, start) }()
	if s.shed(w) {
		code = http.StatusServiceUnavailable
		return
	}
	if s.admit(w) {
		code = http.StatusTooManyRequests
		return
	}
	key := overlay.Key(r.PathValue("key"))
	replica, err := strconv.Atoi(r.URL.Query().Get("replica"))
	if err != nil || replica < 0 {
		code = http.StatusBadRequest
		http.Error(w, "need ?replica=<non-negative int>", code)
		return
	}
	if err := s.b.Unpublish(r.Context(), key, replica); err != nil {
		code = http.StatusInternalServerError
		if r.Context().Err() != nil {
			code = http.StatusGatewayTimeout
		}
		http.Error(w, fmt.Sprintf("unpublish: %v", err), code)
		return
	}
	s.promises.forget(string(key))
	w.WriteHeader(code)
}

func (s *Server) handlePromise(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	code := http.StatusOK
	defer func() { s.observe("promise", code, start) }()
	if s.shed(w) {
		code = http.StatusServiceUnavailable
		return
	}
	key := r.PathValue("key")
	verdict, lease := s.promises.request(key, func() bool {
		// Granting admits one origin fetch + populate into the tree, so
		// the grant itself draws a token; conflicts and present answers
		// inject nothing and stay free.
		return s.bucket == nil || s.bucketTake()
	})
	if c, ok := s.promiseOutcomes[verdict]; ok {
		c.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	switch verdict {
	case promisePresent:
		code = http.StatusOK
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(PromiseResponse{Status: "present"})
	case promiseGranted:
		code = http.StatusAccepted
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(PromiseResponse{Status: "granted", RetryAfterMs: lease.Milliseconds()})
	case promiseBusy:
		code = http.StatusConflict
		retryAfter(w, lease)
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(PromiseResponse{Status: "busy", RetryAfterMs: lease.Milliseconds()})
	case promiseThrottled:
		code = http.StatusTooManyRequests
		s.rejectedRate.Inc()
		retryAfter(w, s.bucketWait())
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(PromiseResponse{Status: "busy", RetryAfterMs: s.bucketWait().Milliseconds()})
	}
}

// bucketTake draws one token without writing a response.
func (s *Server) bucketTake() bool {
	ok, _ := s.bucket.take(s.now())
	return ok
}

// bucketWait reports the current wait for the next token.
func (s *Server) bucketWait() time.Duration {
	if s.bucket == nil {
		return 0
	}
	return s.bucket.wait(s.now())
}
