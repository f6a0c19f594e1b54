package cup_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cup"
)

// heapHeld returns the live heap after a full collection.
func heapHeld() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// What one first-time-miss lookup leaves behind, on the simulator and
// on the goroutine link: a 64-node CAN deployment publishes 2¹² keys, then
// looks each up once at a random node other than its authority, and the
// heap that stays is divided by the lookups. It is the key's state at
// every node of the query's path, the entry cached where it was asked,
// and whatever the runtime keeps for an answered lookup. Before the
// open-query record and the view's second-ask rule it left 1,176 B on
// the simulator and 1,655 B on the live network (1.41×); the bounds are
// this code's figures, 879 B and 1,162 B (1.32×), plus 10 %.
func TestFirstTimeMissHeap(t *testing.T) {
	for _, c := range []struct {
		transport cup.Transport
		bound     float64
	}{
		{cup.Simulated, 967},
		{cup.Live, 1278},
	} {
		t.Run(fmt.Sprint(c.transport), func(t *testing.T) {
			if held := firstTimeMissHeap(t, c.transport); held > c.bound {
				t.Errorf("a first-time-miss lookup leaves %.0f B, want ≤ %.0f", held, c.bound)
			} else {
				t.Logf("a first-time-miss lookup leaves %.0f B (bound %.0f)", held, c.bound)
			}
		})
	}
}

func firstTimeMissHeap(t *testing.T, transport cup.Transport) float64 {
	const keys = 1 << 12
	ctx := context.Background()
	d, err := cup.New(cup.WithTransport(transport), cup.WithOverlay("can"), cup.WithNodes(64), cup.WithSeed(1),
		cup.WithoutWorkload(), cup.WithHopDelay(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ks := make([]cup.Key, keys)
	for i := range ks {
		ks[i] = cup.Key(fmt.Sprintf("key-%d", i))
		if err := d.Publish(ctx, ks[i], 0, "10.0.0.1", time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	before := heapHeld()
	for _, k := range ks {
		at := (d.Authority(k) + cup.NodeID(1+rng.Intn(63))) % 64
		if es, err := d.LookupAt(ctx, at, k); err != nil || len(es) != 1 {
			t.Fatalf("lookup of %q at %v = %v, %v", k, at, es, err)
		}
	}
	held := float64(int64(heapHeld())-int64(before)) / keys
	runtime.KeepAlive(ks)
	return held
}
