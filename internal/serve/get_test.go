package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cup/internal/cache"
	"cup/internal/live"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// TestEntryNodeIsFNV1a pins the in-place hash to hash/fnv's: the entry
// node of a key is part of the serving contract (clients, dashboards
// and the herd guard all rely on one key meeting one peer), and must
// not move with the implementation.
func TestEntryNodeIsFNV1a(t *testing.T) {
	keys := []overlay.Key{"", "k", "key-0", "key-1023", "content-17", "ünïcödé/键",
		overlay.Key(strings.Repeat("long", 100)), "a\x00b", "with space", "t262143"}
	for _, k := range keys {
		for _, size := range []int{1, 2, 16, 64, 1000, 1 << 20} {
			h := fnv.New64a()
			_, _ = h.Write([]byte(k))
			if got, want := EntryNode(k, size), overlay.NodeID(h.Sum64()%uint64(size)); got != want {
				t.Fatalf("EntryNode(%q, %d) = %v, hash/fnv says %v", k, size, got, want)
			}
		}
	}
}

// TestGetBodyMatchesEncodingJSON: the hand-appended body is what the old
// json.NewEncoder(w).Encode(GetResponse{...}) wrote — byte for byte,
// which is stronger than decoding to the same value and also checked —
// for keys and addresses that need escaping, non-ASCII, invalid UTF-8,
// and TTLs across every magnitude and format boundary.
func TestGetBodyMatchesEncodingJSON(t *testing.T) {
	strs := []string{"k", "", "plain-key_0.9~", `quo"te`, `back\slash`, "<script>&amp;</script>",
		"tab\there", "nul\x00", "new\nline", "ünïcödé", "键/值", "emoji-🙂", "bad-utf8-\xff\xfe", "\u2028sep\u2029",
		"del\x7f", "10.0.0.1:8080", "http://replica.example/path?q=1"}
	ttls := []float64{0, 1, -1, 0.5, 3599.999, 3600, 1e-7, 9.99e-7, 1e-6, 1.5e-6, 123456789.125, 1e20, 9.99e20, 1e21, 1.5e21,
		1e-9, -2.5e-8, 1e22, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2, 1.0 / 3, 86400 * 365}
	now := sim.Time(1000)
	for i, key := range strs {
		var entries []cache.Entry
		for j, ttl := range ttls {
			entries = append(entries, cache.Entry{Key: overlay.Key(key), Replica: j*7 - 3,
				Addr: strs[(i+j)%len(strs)], Expires: now + sim.Time(ttl)})
		}
		for _, es := range [][]cache.Entry{entries, entries[:1], entries[:0]} {
			want := GetResponse{Key: key, Entries: make([]EntryJSON, len(es))}
			for j, e := range es {
				want.Entries[j] = EntryJSON{Replica: e.Replica, Addr: e.Addr, TTL: float64(e.Expires - now)}
			}
			var old bytes.Buffer
			if err := json.NewEncoder(&old).Encode(want); err != nil {
				t.Fatal(err)
			}
			got := appendGetResponse(nil, overlay.Key(key), es, now)
			if !bytes.Equal(got, old.Bytes()) {
				t.Fatalf("key %q:\n hand-built %s\n encoding/json %s", key, got, old.Bytes())
			}
			var back GetResponse
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("key %q: body does not decode: %v\n%s", key, err, got)
			}
			var oldBack GetResponse
			if err := json.Unmarshal(old.Bytes(), &oldBack); err != nil {
				t.Fatal(err)
			}
			if back.Key != oldBack.Key || len(back.Entries) != len(oldBack.Entries) {
				t.Fatalf("key %q decodes to %+v, the old body to %+v", key, back, oldBack)
			}
			for j := range back.Entries {
				if back.Entries[j] != oldBack.Entries[j] {
					t.Fatalf("key %q entry %d decodes to %+v, the old body's to %+v", key, j, back.Entries[j], oldBack.Entries[j])
				}
			}
		}
	}
	// What encoding/json refuses outright is still valid JSON here.
	var v struct {
		TTL *float64 `json:"ttl_s"`
	}
	body := append(appendJSONFloat([]byte(`{"ttl_s":`), math.Inf(1)), '}')
	if err := json.Unmarshal(body, &v); err != nil || v.TTL != nil {
		t.Fatalf("non-finite TTL wrote %s (%v)", body, err)
	}
}

// liveBackend serves a goroutine network directly, per-node load signal
// included, so handler tests run against the real hit view.
type liveBackend struct{ n *live.Network }

func (b liveBackend) Size() int     { return b.n.Size() }
func (b liveBackend) Now() sim.Time { return b.n.Now() }
func (b liveBackend) LookupAt(ctx context.Context, at overlay.NodeID, key overlay.Key) ([]cache.Entry, error) {
	return b.n.Lookup(ctx, at, key)
}
func (b liveBackend) Publish(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return b.n.AddReplicaCtx(ctx, key, replica, addr, lifetime)
}
func (b liveBackend) Unpublish(ctx context.Context, key overlay.Key, replica int) error {
	return b.n.RemoveReplicaCtx(ctx, key, replica)
}
func (b liveBackend) Load() (int, int)                      { return b.n.InboxLoad() }
func (b liveBackend) NodeLoad(at overlay.NodeID) (int, int) { return b.n.InboxLoadAt(at) }

// discard is a ResponseWriter that keeps nothing, so an allocation
// count is the handler's alone.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *discard) WriteHeader(code int)        { w.status = code }

// TestGetHitAllocs pins the hit branch's budget: one allocation (the
// request's lazily armed deadline), no timer, and the hit counted.
func TestGetHitAllocs(t *testing.T) {
	n := live.NewNetwork(live.Config{Nodes: 16, HopDelay: 100 * time.Microsecond, Seed: 3})
	defer n.Close()
	srv, err := New(Config{Backend: liveBackend{n}, AdmitRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := n.AddReplicaCtx(context.Background(), "k", 0, "10.0.0.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/key/k", nil)
	req.SetPathValue("key", "k")
	w := &discard{h: http.Header{}}
	srv.handleGet(w, req) // the miss that travels, caches and publishes
	if w.n == 0 || w.status != 0 {
		t.Fatalf("first GET wrote %d bytes with status %d", w.n, w.status)
	}
	before := srv.hits.Value()
	if allocs := testing.AllocsPerRun(500, func() { srv.handleGet(w, req) }); allocs > 1 {
		t.Fatalf("a GET hit allocates %v times in the handler, budget 1", allocs)
	}
	if got := srv.hits.Value() - before; got != 501 {
		t.Fatalf("%v hits counted for 501 served", got)
	}
	if ct := w.h.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

type ctxKey struct{}

// TestLazyDeadline: no timer until somebody waits; then exactly the
// semantics of context.WithTimeout, and Err keeps telling a timeout
// from a stop after the handler has released it.
func TestLazyDeadline(t *testing.T) {
	parent, cancelParent := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "v"))
	defer cancelParent()

	idle := &lazyDeadline{Context: parent, timeout: time.Hour}
	if idle.Err() != nil || idle.armed != nil {
		t.Fatal("an unused deadline armed itself or reports an error")
	}
	if idle.Value(ctxKey{}) != "v" {
		t.Fatal("values do not pass through")
	}
	idle.stop()
	if idle.Err() != nil || idle.armed != nil {
		t.Fatalf("stopping an unused deadline: err %v, armed %v", idle.Err(), idle.armed != nil)
	}
	select {
	case <-idle.Done():
	default:
		t.Fatal("Done after stop is not closed")
	}

	short := &lazyDeadline{Context: parent, timeout: 5 * time.Millisecond}
	if dl, ok := short.Deadline(); !ok || time.Until(dl) > time.Second {
		t.Fatalf("deadline %v, %v", dl, ok)
	}
	select {
	case <-short.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("deadline never fired")
	}
	if !errors.Is(short.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v", short.Err())
	}
	short.stop()
	if !errors.Is(short.Err(), context.DeadlineExceeded) {
		t.Fatalf("err after stop = %v, the timeout is forgotten", short.Err())
	}

	clean := &lazyDeadline{Context: parent, timeout: time.Hour}
	_ = clean.Done() // a lookup waited on it, and was answered in time
	clean.stop()
	if clean.Err() != nil {
		t.Fatalf("an armed deadline stopped in time reports %v", clean.Err())
	}

	child := &lazyDeadline{Context: parent, timeout: time.Hour}
	cancelParent()
	if !errors.Is(child.Err(), context.Canceled) {
		t.Fatalf("parent cancellation not seen before arming: %v", child.Err())
	}
	select {
	case <-child.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("parent cancellation does not close Done")
	}
}
