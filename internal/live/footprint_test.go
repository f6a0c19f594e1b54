package live

import (
	"runtime"
	"testing"
	"unsafe"
)

// A mailbox is a ring of InboxDepth messages, allocated whole when its
// peer is made and live until the network closes, most of it empty. At
// 48 bytes a slot the default ring is 1024 × 48 B = 48 KiB a peer, 3 MiB
// for 64 peers; a 136-byte message, with its update held by value, made
// that 8.5 MiB. The rings count as live heap, and at GOGC=100 the
// collector lets the heap grow to twice the live heap, so a byte of slot
// costs about two bytes of resident memory.
func TestMessageIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got != 48 {
		t.Fatalf("a mailbox message is %d bytes, want 48: new per-kind data goes behind the update pointer", got)
	}
}

// bootHeapBound is what a booted 64-peer network may hold: its rings,
// 3 MiB, and the peers, nodes and overlay around them (3.07–3.10 MiB
// measured, with and without -race; 8.57 MiB with 136-byte messages).
const bootHeapBound = 4 << 20

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
