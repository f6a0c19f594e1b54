package live

import (
	"context"
	"testing"
	"time"

	"cup/internal/cup"
)

func TestTrialInboxDepthCarving(t *testing.T) {
	cases := []struct {
		base, concurrent, want int
	}{
		{1024, 1, 1024},
		{1024, 4, 256},
		{1024, 32, MinInboxDepth}, // 32 shares would undercut the floor
		{0, 2, cup.DefaultInboxDepth / 2},
		{128, 0, 128},
		{100, 3, MinInboxDepth}, // 33 < floor
	}
	for _, c := range cases {
		if got := TrialInboxDepth(c.base, c.concurrent); got != c.want {
			t.Errorf("TrialInboxDepth(%d, %d) = %d, want %d", c.base, c.concurrent, got, c.want)
		}
	}
}

func TestPortBudgetAccounting(t *testing.T) {
	before := PortsInUse()
	if err := acquirePorts(16); err != nil {
		t.Fatal(err)
	}
	if got := PortsInUse(); got != before+16 {
		t.Fatalf("PortsInUse = %d after acquire, want %d", got, before+16)
	}
	if err := acquirePorts(DefaultPortBudget); err == nil {
		releasePorts(DefaultPortBudget)
		t.Fatal("overcommitting the port budget did not fail")
	}
	releasePorts(16)
	if got := PortsInUse(); got != before {
		t.Fatalf("PortsInUse = %d after release, want %d", got, before)
	}
}

func TestTCPNetworkHoldsAndReleasesPortBudget(t *testing.T) {
	before := PortsInUse()
	tn, err := NewTCPNetwork(Config{Nodes: 4, Seed: 1, Node: cup.Defaults()})
	if err != nil {
		t.Fatal(err)
	}
	if got := PortsInUse(); got != before+4 {
		t.Fatalf("PortsInUse = %d with a 4-peer network up, want %d", got, before+4)
	}
	tn.Close()
	if got := PortsInUse(); got != before {
		t.Fatalf("PortsInUse = %d after Close, want %d", got, before)
	}
}

func TestRefreshBudgetPacing(t *testing.T) {
	pacer := refreshPacer{rate: 200} // 5ms slots
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := pacer.pace(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// First departs immediately; the next four wait one 5ms slot each.
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("5 refreshes at 200/s finished in %v; budget not enforced", d)
	}
	if pacer.paced == 0 || pacer.waited == 0 {
		t.Fatalf("pacing stats empty after throttled refreshes: paced=%d waited=%v", pacer.paced, pacer.waited)
	}
}

func TestPaceRefreshHonorsCancellation(t *testing.T) {
	pacer := refreshPacer{rate: 1} // 1/s: the second refresh would wait ~1s
	if err := pacer.pace(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := pacer.pace(ctx); err == nil {
		t.Fatal("PaceRefresh outlived its context")
	}
}
