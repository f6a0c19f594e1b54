package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/serve"
	"cup/internal/sim"
)

// hostBackend is one fake host's store: the client tests model a fleet
// of independent servers (the justcache shape), so rendezvous placement
// is observable — a key Put to its primary is absent from other hosts.
type hostBackend struct {
	mu      sync.Mutex
	entries map[overlay.Key][]cache.Entry
}

func (h *hostBackend) Size() int        { return 8 }
func (h *hostBackend) Now() sim.Time    { return 0 }
func (h *hostBackend) Load() (int, int) { return 0, 0 }

func (h *hostBackend) LookupAt(ctx context.Context, at overlay.NodeID, key overlay.Key) ([]cache.Entry, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]cache.Entry(nil), h.entries[key]...), nil
}

func (h *hostBackend) Publish(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	kept := h.entries[key][:0]
	for _, e := range h.entries[key] {
		if e.Replica != replica {
			kept = append(kept, e)
		}
	}
	h.entries[key] = append(kept, cache.Entry{
		Key: key, Replica: replica, Addr: addr, Expires: sim.Time(lifetime.Seconds()),
	})
	return nil
}

func (h *hostBackend) Unpublish(ctx context.Context, key overlay.Key, replica int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.entries, key)
	return nil
}

func (h *hostBackend) has(key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries[overlay.Key(key)]) > 0
}

func (h *hostBackend) set(key string, e cache.Entry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries[overlay.Key(key)] = []cache.Entry{e}
}

// newFleet boots n independent serving hosts and returns their
// addresses plus per-address backends.
func newFleet(t *testing.T, n int) ([]string, map[string]*hostBackend) {
	t.Helper()
	hosts := make([]string, n)
	backends := make(map[string]*hostBackend, n)
	for i := 0; i < n; i++ {
		b := &hostBackend{entries: make(map[overlay.Key][]cache.Entry)}
		srv, err := serve.New(serve.Config{Backend: b, PromiseTTL: 250 * time.Millisecond})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		mux := http.NewServeMux()
		srv.Register(mux)
		hs := httptest.NewServer(mux)
		t.Cleanup(hs.Close)
		addr := hs.Listener.Addr().String()
		hosts[i] = addr
		backends[addr] = b
	}
	return hosts, backends
}

func newTestClient(t *testing.T, hosts []string, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		Hosts:   hosts,
		Backoff: 5 * time.Millisecond,
		Seed:    1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRankProperties(t *testing.T) {
	hosts := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	// Deterministic: same inputs, same ranking.
	if !reflect.DeepEqual(rank(hosts, "k"), rank(hosts, "k")) {
		t.Fatal("rank is not deterministic")
	}
	// Permutation-invariant: every client agrees regardless of the order
	// its config listed the hosts in.
	perm := []string{"d:1", "a:1", "e:1", "c:1", "b:1"}
	if !reflect.DeepEqual(rank(hosts, "k"), rank(perm, "k")) {
		t.Fatal("rank depends on host list order")
	}
	// Total: every host appears exactly once.
	seen := map[string]int{}
	for _, h := range rank(hosts, "k") {
		seen[h]++
	}
	if len(seen) != len(hosts) {
		t.Fatalf("rank lost hosts: %v", seen)
	}
	// Minimal disruption: removing one host must not reorder the keys
	// that did not rank it first.
	shrunk := []string{"a:1", "b:1", "c:1", "d:1"} // e removed
	moved := 0
	for i := 0; i < 200; i++ {
		key := string(rune('A'+i%26)) + string(rune('0'+i/26))
		full := rank(hosts, key)
		if full[0] == "e:1" {
			continue // e was primary; this key must move
		}
		if rank(shrunk, key)[0] != full[0] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys changed primary although their primary survived", moved)
	}
	// Spread: no host owns everything.
	primaries := map[string]int{}
	for i := 0; i < 100; i++ {
		primaries[rank(hosts, string(rune('a'+i%26))+string(rune('0'+i/26)))[0]]++
	}
	if len(primaries) < 3 {
		t.Fatalf("primaries concentrated on %d hosts: %v", len(primaries), primaries)
	}
}

func TestPutThenGetHitsPrimary(t *testing.T) {
	hosts, backends := newFleet(t, 3)
	c := newTestClient(t, hosts, nil)
	ctx := context.Background()

	if err := c.Put(ctx, "k", Entry{Replica: 0, Addr: "origin", TTL: 60}, 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	primary := c.RankHosts("k")[0]
	if !backends[primary].has("k") {
		t.Fatal("Put did not land on the rendezvous primary")
	}
	for addr, b := range backends {
		if addr != primary && b.has("k") {
			t.Fatalf("Put leaked to non-primary host %s", addr)
		}
	}
	entries, err := c.Get(ctx, "k")
	if err != nil || len(entries) != 1 || entries[0].Addr != "origin" {
		t.Fatalf("Get = %v, %v; want the origin entry", entries, err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats.Hits = %d, want 1", st.Hits)
	}
}

func TestGetMissReturnsErrMiss(t *testing.T) {
	hosts, _ := newFleet(t, 3)
	c := newTestClient(t, hosts, nil)
	if _, err := c.Get(context.Background(), "nope"); err != ErrMiss {
		t.Fatalf("Get on cold key = %v, want ErrMiss", err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats.Misses = %d, want 1", st.Misses)
	}
}

func TestReplicaHitSchedulesWriteBack(t *testing.T) {
	hosts, backends := newFleet(t, 4)
	c := newTestClient(t, hosts, nil)
	ctx := context.Background()

	ranked := c.RankHosts("wb")
	primary, replica := ranked[0], ranked[1]
	backends[replica].set("wb", cache.Entry{Key: "wb", Replica: 0, Addr: "origin", Expires: 60})

	entries, err := c.Get(ctx, "wb")
	if err != nil || len(entries) == 0 {
		t.Fatalf("Get = %v, %v", entries, err)
	}
	// The write-back is asynchronous and best-effort; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !backends[primary].has("wb") {
		if time.Now().After(deadline) {
			t.Fatal("replica hit never written back to the primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.WriteBacks != 1 {
		t.Fatalf("stats.WriteBacks = %d, want 1", st.WriteBacks)
	}
}

func TestGetOrFillPopulatesOnce(t *testing.T) {
	hosts, backends := newFleet(t, 3)
	ctx := context.Background()

	// Two independent clients race to fill the same cold key — the
	// promise protocol must elect exactly one filler; the loser waits and
	// reads the winner's value.
	c1 := newTestClient(t, hosts, nil)
	c2 := newTestClient(t, hosts, nil)
	var fills atomic.Int64
	fill := func(context.Context) (Entry, time.Duration, error) {
		fills.Add(1)
		return Entry{Replica: 0, Addr: "origin", TTL: 60}, time.Minute, nil
	}
	var wg sync.WaitGroup
	results := make([][]Entry, 2)
	errs := make([]error, 2)
	for i, c := range []*Client{c1, c2} {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			results[i], errs[i] = c.GetOrFill(ctx, "cold", fill)
		}(i, c)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("GetOrFill[%d]: %v", i, errs[i])
		}
		if len(results[i]) == 0 || results[i][0].Addr != "origin" {
			t.Fatalf("GetOrFill[%d] = %v, want the filled entry", i, results[i])
		}
	}
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want exactly 1 (promise protocol failed)", got)
	}
	primary := c1.RankHosts("cold")[0]
	if !backends[primary].has("cold") {
		t.Fatal("filled entry missing from the primary")
	}
	if st1, st2 := c1.Stats(), c2.Stats(); st1.Promises+st2.Promises != 1 {
		t.Fatalf("promise grants = %d+%d, want exactly 1", st1.Promises, st2.Promises)
	}
}

func TestGetOrFillReadsExistingKey(t *testing.T) {
	hosts, _ := newFleet(t, 3)
	c := newTestClient(t, hosts, nil)
	ctx := context.Background()
	if err := c.Put(ctx, "warm", Entry{Replica: 0, Addr: "origin", TTL: 60}, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := c.GetOrFill(ctx, "warm", func(context.Context) (Entry, time.Duration, error) {
		t.Fatal("fill ran for a warm key")
		return Entry{}, 0, nil
	})
	if err != nil || len(entries) != 1 {
		t.Fatalf("GetOrFill = %v, %v", entries, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no hosts succeeded")
	}
	if _, err := New(Config{Hosts: []string{"a:1"}, Fanout: -1}); err == nil {
		t.Fatal("New with negative fanout succeeded")
	}
}

func TestFanoutTruncatesRanking(t *testing.T) {
	hosts := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	c := newTestClient(t, hosts, func(cfg *Config) { cfg.Fanout = 2 })
	if got := len(c.RankHosts("k")); got != 2 {
		t.Fatalf("RankHosts returned %d hosts, want fanout 2", got)
	}
	// Fanout above the host count degrades to the full set.
	c2 := newTestClient(t, hosts[:2], func(cfg *Config) { cfg.Fanout = 9 })
	if got := len(c2.RankHosts("k")); got != 2 {
		t.Fatalf("RankHosts returned %d hosts, want all 2", got)
	}
}

// scriptedHost answers the population protocol from a script, so the
// verdict patterns that split a grant across hosts are staged, not raced
// for: promise lists the statuses of successive POST /promise calls (the
// last repeats), a 200 makes the key present from then on, and PUTs are
// stored and counted.
type scriptedHost struct {
	mu       sync.Mutex
	promise  []int
	promises int
	puts     int
	entry    *Entry
}

func (h *scriptedHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.Method {
	case http.MethodPost:
		status := h.promise[min(h.promises, len(h.promise)-1)]
		h.promises++
		if status == http.StatusOK {
			h.entry = &Entry{Replica: 0, Addr: "other-filler", TTL: 60}
		}
		w.Header().Set("X-Retry-After-Ms", "1")
		w.WriteHeader(status)
	case http.MethodPut:
		var req serve.PutRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h.puts++
		h.entry = &Entry{Replica: req.Replica, Addr: req.Addr, TTL: req.TTL}
		w.WriteHeader(http.StatusNoContent)
	default:
		if h.entry == nil {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(serve.GetResponse{Entries: []Entry{*h.entry}})
	}
}

// The highest-ranked host that answers the promise round decides; a
// grant from a host ranked below it authorises nothing.
func TestGetOrFillDefersToHighestRankedVerdict(t *testing.T) {
	const key = "cold"
	for _, tc := range []struct {
		name               string
		primary, secondary []int // promise scripts; nil primary = unreachable
		wantFills          int
		wantAddr           string
		wantPuts           [2]int // primary, secondary
	}{
		{name: "primary busy then present, secondary grants",
			primary: []int{http.StatusConflict, http.StatusOK}, secondary: []int{http.StatusAccepted},
			wantFills: 0, wantAddr: "other-filler"},
		{name: "primary grants, secondary busy",
			primary: []int{http.StatusAccepted}, secondary: []int{http.StatusConflict},
			wantFills: 1, wantAddr: "origin", wantPuts: [2]int{1, 0}},
		{name: "primary unreachable, secondary grants",
			primary: nil, secondary: []int{http.StatusAccepted},
			wantFills: 1, wantAddr: "origin", wantPuts: [2]int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scripted := [2]*scriptedHost{{}, {}}
			servers := [2]*httptest.Server{httptest.NewServer(scripted[0]), httptest.NewServer(scripted[1])}
			hosts := []string{servers[0].Listener.Addr().String(), servers[1].Listener.Addr().String()}
			c := newTestClient(t, hosts, nil)
			// Rendezvous order is a property of the addresses: find out
			// which server the key ranks first, then hand out the scripts.
			pri := 0
			if c.RankHosts(key)[0] == hosts[1] {
				pri = 1
			}
			scripted[pri].promise, scripted[1-pri].promise = tc.primary, tc.secondary
			if tc.primary == nil {
				servers[pri].Close()
			}
			t.Cleanup(servers[0].Close)
			t.Cleanup(servers[1].Close)

			fills := 0
			entries, err := c.GetOrFill(context.Background(), key, func(context.Context) (Entry, time.Duration, error) {
				fills++
				return Entry{Replica: 0, Addr: "origin"}, time.Minute, nil
			})
			if err != nil {
				t.Fatalf("GetOrFill: %v", err)
			}
			if fills != tc.wantFills {
				t.Errorf("fill ran %d times, want %d", fills, tc.wantFills)
			}
			if len(entries) != 1 || entries[0].Addr != tc.wantAddr {
				t.Errorf("GetOrFill = %v, want one entry from %q", entries, tc.wantAddr)
			}
			if got := [2]int{scripted[pri].puts, scripted[1-pri].puts}; got != tc.wantPuts {
				t.Errorf("PUTs (primary, secondary) = %v, want %v", got, tc.wantPuts)
			}
		})
	}
}
