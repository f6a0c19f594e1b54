package live

import (
	"runtime"
	"testing"
)

// bootHeapBound is what a booted 64-peer network may hold: the peers,
// nodes and overlay, 32 KB measured. A peer queues no messages of its
// own — what waits for it waits on its lock — so nothing here grows with
// InboxDepth; a per-peer ring of 1024 48-byte slots made it 3 MiB.
const bootHeapBound = 256 << 10

func TestBootedNetworkHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := NewNetwork(Config{Nodes: 64})
	defer n.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > bootHeapBound {
		t.Fatalf("a booted 64-peer network holds %d B of heap, want at most %d", held, bootHeapBound)
	}
}
