package cup_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cup"
	"cup/client"
)

// servingDeployment boots a live deployment with the HTTP serving layer
// on a free port.
func servingDeployment(t *testing.T, opts ...cup.Option) *cup.Deployment {
	t.Helper()
	base := []cup.Option{
		cup.WithLive(),
		cup.WithNodes(16),
		cup.WithHopDelay(2 * time.Millisecond),
		cup.WithSeed(7),
		cup.WithServing("127.0.0.1:0"),
		cup.WithTelemetry(""),
	}
	d, err := cup.New(append(base, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func TestServingEndToEnd(t *testing.T) {
	d := servingDeployment(t)
	addrs := d.ServingAddrs()
	if len(addrs) != 1 {
		t.Fatalf("ServingAddrs = %v, want one bound address", addrs)
	}
	base := "http://" + addrs[0]

	// Cold GET misses with 404.
	resp, err := http.Get(base + "/v1/key/k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold GET = %d, want 404", resp.StatusCode)
	}

	// PUT publishes into the deployment; GET then hits.
	body, _ := json.Marshal(map[string]any{"replica": 0, "addr": "198.51.100.9", "ttl_s": 300.0})
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/key/k", bytes.NewReader(body))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/key/k")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm GET = %d (%s), want 200", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "198.51.100.9") {
		t.Fatalf("GET body %q missing the published address", raw)
	}

	// The published entry is visible through the native client API too:
	// the serving layer and the Go API share one deployment.
	entries, err := d.LookupAt(context.Background(), 0, "k")
	if err != nil || len(entries) == 0 {
		t.Fatalf("LookupAt after HTTP PUT = %v, %v", entries, err)
	}

	// DELETE unpublishes; polls because the Delete propagates.
	req, _ = http.NewRequest(http.MethodDelete, base+"/v1/key/k?replica=0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}

	// Serving metrics are visible on the same listener (shared mux).
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"cup_serve_hits_total", "cup_serve_misses_total", "cup_http_requests_total"} {
		if !strings.Contains(string(raw), series) {
			t.Errorf("/metrics on the serving address missing %s", series)
		}
	}
}

// TestServingFlashCrowdHerd is the flash-crowd regression: N clients
// miss the same cold key at once, and CUP's query coalescing must turn
// the herd into exactly one upstream query; the promise protocol must
// elect exactly one populator; every client then observes the value.
func TestServingFlashCrowdHerd(t *testing.T) {
	// A generous hop delay widens the pending-query window, so all N
	// concurrent misses reliably land while the first query is in
	// flight.
	d := servingDeployment(t, cup.WithHopDelay(40*time.Millisecond))
	base := "http://" + d.ServingAddrs()[0]

	// Pick a key whose serving entry node is not its authority: the miss
	// query then actually travels, leaving a coalescing window at the
	// entry node (an authority answers its own queries instantly).
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("herd-%d", i)
		if d.ServingEntryNode(cup.Key(k)) != d.Authority(cup.Key(k)) {
			key = k
			break
		}
	}

	before, _ := d.MetricValue("cup_queries_coalesced_total", cup.MetricLabel{Key: "source", Value: "local"})

	const N = 8
	var wg sync.WaitGroup
	gate := make(chan struct{})
	codes := make([]int, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			resp, err := http.Get(base + "/v1/key/" + key)
			if err != nil {
				t.Errorf("herd GET %d: %v", i, err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusNotFound {
			t.Fatalf("herd GET %d = %d, want 404 on the cold key", i, code)
		}
	}

	// The single-flight proof: N concurrent misses for one key at one
	// entry node coalesce onto one pending query — N-1 absorbed locally.
	after, ok := d.MetricValue("cup_queries_coalesced_total", cup.MetricLabel{Key: "source", Value: "local"})
	if !ok {
		t.Fatal("coalesced metric missing")
	}
	if got := after - before; got != N-1 {
		t.Fatalf("locally coalesced queries = %g, want exactly %d (one origin lookup for %d misses)", got, N-1, N)
	}
	if misses, _ := d.MetricValue("cup_serve_misses_total"); misses != N {
		t.Fatalf("cup_serve_misses_total = %g, want %d", misses, N)
	}

	// Promise storm: the herd's clients race for the population lease.
	statuses := make([]int, N)
	wg = sync.WaitGroup{}
	gate = make(chan struct{})
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			resp, err := http.Post(base+"/v1/key/"+key+"/promise", "application/json", nil)
			if err != nil {
				t.Errorf("promise %d: %v", i, err)
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusConflict && resp.Header.Get("Retry-After") == "" {
				t.Errorf("promise %d: 409 without Retry-After", i)
			}
		}(i)
	}
	close(gate)
	wg.Wait()
	granted, busy := 0, 0
	for _, s := range statuses {
		switch s {
		case http.StatusAccepted:
			granted++
		case http.StatusConflict:
			busy++
		}
	}
	if granted != 1 || busy != N-1 {
		t.Fatalf("promise storm: %d granted, %d busy; want exactly 1 and %d", granted, busy, N-1)
	}
	if v, _ := d.MetricValue("cup_serve_promises_total", cup.MetricLabel{Key: "outcome", Value: "granted"}); v != 1 {
		t.Fatalf("granted promise counter = %g, want 1", v)
	}

	// The grantee populates; every client eventually observes the value
	// (the Append propagates through the interest tree to the entry
	// node).
	body, _ := json.Marshal(map[string]any{"replica": 0, "addr": "203.0.113.77", "ttl_s": 300.0})
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/key/"+key, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("grantee PUT = %d, want 204", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/key/" + key)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && strings.Contains(string(raw), "203.0.113.77") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("populated key never became readable: last %d %q", resp.StatusCode, raw)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A second promise round now reports the key present.
	resp, err = http.Post(base+"/v1/key/"+key+"/promise", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "present") {
		t.Fatalf("post-populate promise = %d %q, want 200 present", resp.StatusCode, raw)
	}
}

// TestServingSmartClientAgainstDeployment drives the real smart client
// against a real live deployment end to end.
func TestServingSmartClientAgainstDeployment(t *testing.T) {
	// Three listeners on one deployment stand in for a host fleet.
	d, err := cup.New(
		cup.WithLive(),
		cup.WithNodes(16),
		cup.WithHopDelay(2*time.Millisecond),
		cup.WithSeed(7),
		cup.WithServing("127.0.0.1:0", "127.0.0.1:0"),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	// ":0" twice would dedupe as one configured address; distinct
	// loopback strings bind distinct listeners.
	addrs := d.ServingAddrs()
	if len(addrs) != 1 {
		t.Fatalf("ServingAddrs = %v: identical \"127.0.0.1:0\" strings dedupe to one listener", addrs)
	}

	c, err := client.New(client.Config{Hosts: addrs, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	if err := c.Put(ctx, "alpha", client.Entry{Replica: 0, Addr: "198.51.100.1", TTL: 300}, 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	entries, err := c.Get(ctx, "alpha")
	if err != nil || len(entries) == 0 {
		t.Fatalf("Get = %v, %v", entries, err)
	}
	entries, err = c.GetOrFill(ctx, "beta", func(context.Context) (client.Entry, time.Duration, error) {
		return client.Entry{Replica: 0, Addr: "198.51.100.2", TTL: 300}, 5 * time.Minute, nil
	})
	if err != nil || len(entries) == 0 {
		t.Fatalf("GetOrFill = %v, %v", entries, err)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Promises != 1 {
		t.Fatalf("client stats = %+v, want hits > 0 and exactly one promise grant", st)
	}
}

func TestServingSharesTelemetryListener(t *testing.T) {
	// One configured address claimed by both features binds once and
	// serves both surfaces.
	d, err := cup.New(
		cup.WithLive(),
		cup.WithNodes(8),
		cup.WithHopDelay(time.Millisecond),
		cup.WithServing("127.0.0.1:0"),
		cup.WithTelemetry("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	addrs := d.ServingAddrs()
	if len(addrs) != 1 {
		t.Fatalf("ServingAddrs = %v", addrs)
	}
	if got := d.TelemetryAddr(); got != addrs[0] {
		t.Fatalf("TelemetryAddr = %q, want the shared serving listener %q", got, addrs[0])
	}
	for _, path := range []string{"/metrics", "/v1/key/x"} {
		resp, err := http.Get("http://" + addrs[0] + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotImplemented {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

func TestServingOnSimulatedTransport(t *testing.T) {
	// The serving layer is transport-agnostic: a simulated deployment
	// (no live network, no inbox load signal) serves the same API.
	d, err := cup.New(
		cup.WithoutWorkload(),
		cup.WithNodes(16),
		cup.WithSeed(3),
		cup.WithServing("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()
	base := "http://" + d.ServingAddrs()[0]
	body, _ := json.Marshal(map[string]any{"replica": 0, "addr": "a", "ttl_s": 60.0})
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/key/simk", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/key/simk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d, want 200", resp.StatusCode)
	}
}

// WithAdmitRate shapes the write path's token bucket: at one token a
// second with a burst of one, a second PUT right behind the first is
// refused with 429; a negative rate turns admission off.
func TestWithAdmitRateShapesWrites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rate  float64
		codes []int
	}{
		{"one per second", 1, []int{http.StatusNoContent, http.StatusTooManyRequests}},
		{"negative rate disables admission", -1, []int{http.StatusNoContent, http.StatusNoContent, http.StatusNoContent}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t, cup.WithoutWorkload(), cup.WithNodes(8),
				cup.WithServing("127.0.0.1:0"), cup.WithAdmitRate(tc.rate, 1))
			url := "http://" + d.ServingAddrs()[0] + "/v1/key/k"
			body, _ := json.Marshal(map[string]any{"replica": 0, "addr": "a", "ttl_s": 60.0})
			for i, want := range tc.codes {
				req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("PUT %d = %d, want %d", i+1, resp.StatusCode, want)
				}
			}
		})
	}
}

func TestWithServingValidation(t *testing.T) {
	if _, err := cup.New(cup.WithServing()); err == nil {
		t.Fatal("WithServing() with no addresses succeeded")
	}
	if _, err := cup.New(cup.WithServing("")); err == nil {
		t.Fatal("WithServing(\"\") succeeded")
	}
}

// TestServingHotKeyOverloadSheds is the overload the global guard could
// not see: one key's entry peer stops draining its mailbox and GETs for
// that key pile into it, while the other 63 inboxes sit empty — global
// occupancy never passes 1/64. The guard in front of a GET watches the
// entry node's own inbox, so once that is 90 % full further GETs fail
// fast with 503 and Retry-After instead of joining the backlog, and when
// the peer drains again everything admitted is answered: nobody waits
// out the query timeout.
func TestServingHotKeyOverloadSheds(t *testing.T) {
	const (
		depth    = 32
		requests = 4 * depth
	)
	d := servingDeployment(t, cup.WithNodes(64), cup.WithInboxDepth(depth))
	base := "http://" + d.ServingAddrs()[0]
	const key = "hot" // never published: every GET is a miss through the mailbox
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: requests}}
	defer hc.CloseIdleConnections()

	release := make(chan struct{})
	blocked := make(chan struct{})
	entry := d.ServingEntryNode(key)
	go func() { _ = d.Inspect(entry, func(*cup.Node) { close(blocked); <-release }) }()
	<-blocked

	type outcome struct {
		code       int
		retryAfter string
		took       time.Duration
		err        error
	}
	results := make(chan outcome, requests)
	for i := 0; i < requests; i++ {
		go func() {
			start := time.Now()
			resp, err := hc.Get(base + "/v1/key/" + key)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), took: time.Since(start)}
		}()
		// Staggered, so that the requests racing past the guard at any
		// instant are fewer than the tenth of the inbox it leaves free.
		time.Sleep(500 * time.Microsecond)
	}
	rejected := func() float64 {
		v, _ := d.MetricValue("cup_serve_admission_rejected_total", cup.MetricLabel{Key: "reason", Value: "overload"})
		return v
	}
	for deadline := time.Now().Add(2 * time.Second); rejected() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)

	var shed, missed int
	for i := 0; i < requests; i++ {
		r := <-results
		switch {
		case r.err != nil:
			t.Fatalf("request failed: %v", r.err)
		case r.code == http.StatusServiceUnavailable:
			shed++
			if r.retryAfter == "" {
				t.Error("503 without Retry-After")
			}
			if r.took > time.Second {
				t.Errorf("a shed request took %v: the guard must fail fast", r.took)
			}
		case r.code == http.StatusNotFound:
			missed++
		default:
			t.Errorf("GET = %d after %v, want 503 (shed) or 404 (admitted, answered after the stall)", r.code, r.took)
		}
		if r.took > 4*time.Second {
			t.Errorf("a request took %v: it waited out the query timeout", r.took)
		}
	}
	if shed == 0 || rejected() == 0 {
		t.Fatalf("%d requests into a stalled entry peer with a %d-deep inbox: %d shed (metric %v), %d answered — the guard never fired",
			requests, depth, shed, rejected(), missed)
	}
	if missed == 0 || missed > depth {
		t.Fatalf("%d requests admitted into a %d-deep inbox", missed, depth)
	}
}
