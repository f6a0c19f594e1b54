package overlay

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Builder constructs an overlay of n nodes. seed drives overlays with
// randomized construction (the CAN's random join points); overlays whose
// layout is fully determined by hashing (Chord, Kademlia) ignore it.
type Builder func(n int, seed int64) Overlay

// registry maps overlay kind names to builders. Kinds self-register from
// their package init functions (like database/sql drivers), so importing an
// overlay package — directly or blank — makes it buildable by name.
var registry = map[string]Builder{}

// Register makes an overlay kind buildable by name. It panics on an empty
// name, a nil builder, or a duplicate registration, all of which are
// programmer errors. Register is intended for package init functions and is
// not safe for concurrent use.
func Register(kind string, b Builder) {
	if kind == "" {
		panic("overlay: Register with empty kind")
	}
	if b == nil {
		panic(fmt.Sprintf("overlay: Register(%q) with nil builder", kind))
	}
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("overlay: Register(%q) called twice", kind))
	}
	registry[kind] = b
}

// Build constructs an overlay of the named kind. Unknown kinds return an
// error listing every registered kind, so callers can surface actionable
// messages without hard-coding the kind set.
func Build(kind string, n int, seed int64) (Overlay, error) {
	b, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("overlay: unknown kind %q (registered: %s)", kind, KindList())
	}
	return b(n, seed), nil
}

// Shared is Build memoised: every caller asking for the same (kind, n,
// seed) gets the same instance, built once per process. It keeps the most
// recent build of each kind. The result is shared and must never be
// mutated — not joined, not left, not edited through Neighbors: a caller
// that changes membership builds its own copy with Build, which is
// identical because builds are deterministic. Callers asking for one key
// concurrently wait on one build; builds of different keys run side by
// side.
func Shared(kind string, n int, seed int64) (Overlay, error) {
	shared.Lock()
	b := shared.last[kind]
	if b == nil || b.n != n || b.seed != seed {
		b = &sharedBuild{n: n, seed: seed}
		shared.last[kind] = b
	}
	shared.Unlock()
	b.once.Do(func() { b.ov, b.err = Build(kind, n, seed) })
	return b.ov, b.err
}

// shared holds Shared's most recent build of each kind.
var shared = struct {
	sync.Mutex
	last map[string]*sharedBuild
}{last: map[string]*sharedBuild{}}

// sharedBuild is one memoised Build; once guards ov and err.
type sharedBuild struct {
	n    int
	seed int64
	once sync.Once
	ov   Overlay
	err  error
}

// MustBuild is Build for callers where an unknown kind is fatal.
func MustBuild(kind string, n int, seed int64) Overlay {
	ov, err := Build(kind, n, seed)
	if err != nil {
		panic(err.Error())
	}
	return ov
}

// Registered reports whether kind has been registered.
func Registered(kind string) bool {
	_, ok := registry[kind]
	return ok
}

// Kinds returns the registered kind names in sorted order.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KindList renders the registered kinds as "a|b|c" for flag help and error
// messages.
func KindList() string { return strings.Join(Kinds(), "|") }
