package live

import (
	"context"
	"strings"
	"testing"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
)

// defaultCfg returns the standard CUP node configuration for TCP tests.
func defaultCfg() cup.Config { return cup.Defaults() }

func TestTCPSecondLookupIsCached(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 16, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	add(t, tn, "k", 0, "10.1.1.1", time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var nid overlay.NodeID = 7
	if tn.Authority("k") == nid {
		nid = 8
	}
	if _, err := tn.Lookup(ctx, nid, "k"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := tn.Lookup(ctx, nid, "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("cached lookup took %v", d)
	}
}

func TestTCPRefreshReachesSubscriber(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 12, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	add(t, tn, "k", 0, "10.1.1.1", 300*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var nid overlay.NodeID = 4
	if tn.Authority("k") == nid {
		nid = 5
	}
	if _, err := tn.Lookup(ctx, nid, "k"); err != nil {
		t.Fatal(err)
	}
	if err := tn.RefreshCtx(ctx, "k", 0, "10.1.1.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // original entry now expired
	start := time.Now()
	entries, err := tn.Lookup(ctx, nid, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries after refresh = %+v", entries)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("post-refresh lookup walked the overlay (%v); refresh never arrived", d)
	}
}

func TestTCPInvalidSize(t *testing.T) {
	if _, err := NewTCPNetwork(Config{Nodes: 0, Seed: 1, Node: defaultCfg()}); err == nil {
		t.Fatal("0 peers accepted")
	}
}

// TestTCPBootFailureKeepsLedger: a network the port budget has no room
// for is refused before it binds anything, and the ledger is where it
// was.
func TestTCPBootFailureKeepsLedger(t *testing.T) {
	before := PortsInUse()
	hold := DefaultPortBudget - before - 3
	if err := acquirePorts(hold); err != nil {
		t.Fatal(err)
	}
	defer releasePorts(hold)
	if _, err := NewTCPNetwork(Config{Nodes: 4, Seed: 3}); err == nil || !strings.Contains(err.Error(), "port budget") {
		t.Fatalf("boot past the port budget: err = %v, want the exhausted budget named", err)
	}
	if got := PortsInUse(); got != before+hold {
		t.Fatalf("PortsInUse = %d after the refused boot, want %d", got, before+hold)
	}
}

// TestTCPJoinAndLeave: churn keeps the ledger balanced — a joiner takes
// one listener, a leaver gives one back.
func TestTCPJoinAndLeave(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 8, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	ctx := ctxShort(t)
	before := PortsInUse()
	id, err := tn.Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := PortsInUse(); got != before+1 {
		t.Fatalf("PortsInUse = %d after join, want %d", got, before+1)
	}
	add(t, tn, "k", 0, "10.0.0.1:80", time.Hour)
	entries, err := tn.Lookup(ctx, id, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("lookup at joined TCP peer: %d entries, want 1", len(entries))
	}
	if err := tn.Leave(ctx, id); err != nil {
		t.Fatal(err)
	}
	if got := PortsInUse(); got != before {
		t.Fatalf("PortsInUse = %d after leave, want %d", got, before)
	}
	if tn.IsAlive(id) {
		t.Fatal("TCP peer alive after Leave")
	}
	// Survivors still answer.
	var at overlay.NodeID
	for i := 0; i < tn.Size(); i++ {
		if nid := overlay.NodeID(i); tn.IsAlive(nid) && tn.Authority("k") != nid {
			at = nid
			break
		}
	}
	if _, err := tn.Lookup(ctx, at, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 4, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	tn.Close()
	tn.Close()
}
