// Integration tests of the public façade: the API a downstream user
// imports must run end to end without reaching into internal packages.
package cup_test

import (
	"context"
	"testing"
	"time"

	"cup"
)

// facadeRun builds a deployment from opts and runs its scripted workload.
func facadeRun(t *testing.T, opts ...cup.Option) *cup.Result {
	t.Helper()
	res, err := newDeployment(t, opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeRun(t *testing.T) {
	res := facadeRun(t, cup.WithNodes(32), cup.WithQueryRate(2),
		cup.WithQueryDuration(300*time.Second), cup.WithSeed(1))
	if res.Counters.Queries == 0 {
		t.Fatal("façade run produced no queries")
	}
	if res.Counters.TotalCost() != res.Counters.MissCost()+res.Counters.Overhead() {
		t.Fatal("cost identity broken through façade")
	}
}

func TestFacadeStandardVsDefaults(t *testing.T) {
	opts := []cup.Option{cup.WithNodes(64), cup.WithQueryRate(5),
		cup.WithQueryDuration(600 * time.Second), cup.WithSeed(2)}
	std := facadeRun(t, append(opts, cup.WithStandardCaching())...)
	c := facadeRun(t, opts...)
	if std.Counters.Overhead() != 0 {
		t.Fatal("standard caching must have zero overhead")
	}
	if c.Counters.MissCost() >= std.Counters.MissCost() {
		t.Fatalf("CUP miss cost %d not below standard %d",
			c.Counters.MissCost(), std.Counters.MissCost())
	}
}

func TestFacadeConstants(t *testing.T) {
	// The update taxonomy must survive re-export with stable ordering.
	if cup.FirstTime.Priority() >= cup.Delete.Priority() ||
		cup.Delete.Priority() >= cup.Refresh.Priority() ||
		cup.Refresh.Priority() >= cup.Append.Priority() {
		t.Fatal("update priority ordering broken")
	}
	if cup.UnlimitedPushLevel >= 0 {
		t.Fatal("UnlimitedPushLevel must be negative")
	}
	if cup.Defaults().Mode != cup.ModeCUP || cup.Standard().Mode != cup.ModeStandard {
		t.Fatal("mode constants wired wrong")
	}
}

func TestFacadeLimiter(t *testing.T) {
	l := cup.NewLimiter()
	l.Enqueue(1, cup.Update{Key: "k", Type: cup.Refresh, Expires: 100})
	out := l.Drain(0, -1)
	if len(out) != 1 || out[0].U.Key != "k" {
		t.Fatalf("limiter through façade: %+v", out)
	}
}
