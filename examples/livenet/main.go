// Livenet: CUP as a real concurrent system through the unified cup.New
// deployment API. Every peer is a goroutine, query and update channels
// are Go channels, and lookups are served with real wall-clock latency.
// Replicas register, refresh, and disappear while clients look keys up
// from random peers.
package main

import (
	"context"
	"fmt"
	"time"

	"cup"
)

func main() {
	d, err := cup.New(
		cup.WithTransport(cup.Live),
		cup.WithNodes(64),
		cup.WithHopDelay(2*time.Millisecond),
	)
	if err != nil {
		panic(err)
	}
	defer d.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const key = cup.Key("ubuntu-24.04.iso")
	fmt.Printf("64 goroutine peers up; authority for %q is %v\n\n", key, d.Authority(key))

	// Three replicas announce themselves to the authority.
	for r := 0; r < 3; r++ {
		if err := d.Publish(ctx, key, r, fmt.Sprintf("198.51.100.%d", r+1), time.Hour); err != nil {
			fmt.Println("publish failed:", err)
			return
		}
	}

	// First lookup walks the overlay; repeat lookups at the same peer hit
	// its CUP-maintained cache.
	for _, peer := range []cup.NodeID{5, 41, 5} {
		start := time.Now()
		entries, err := d.LookupAt(ctx, peer, key)
		if err != nil {
			fmt.Println("lookup failed:", err)
			return
		}
		fmt.Printf("lookup at %v -> %d replicas in %v\n", peer, len(entries), time.Since(start).Round(time.Microsecond))
	}

	// A replica disappears; the authority pushes a Delete down the tree.
	if err := d.Unpublish(ctx, key, 0); err != nil {
		fmt.Println("unpublish failed:", err)
		return
	}
	time.Sleep(50 * time.Millisecond)
	entries, err := d.LookupAt(ctx, 41, key)
	if err != nil {
		fmt.Println("lookup failed:", err)
		return
	}
	fmt.Printf("\nafter replica 0 deletion, peer 41 sees %d replicas:\n", len(entries))
	for _, e := range entries {
		fmt.Printf("  replica %d at %s\n", e.Replica, e.Addr)
	}

	c := d.Counters()
	fmt.Printf("\ncost (§3.3): %d queries, %d hits, miss cost %d hops, overhead %d hops\n",
		c.Queries, c.Hits, c.MissCost(), c.Overhead())
}
