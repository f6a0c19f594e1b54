package live

import (
	"testing"

	"cup/internal/cup"
)

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
