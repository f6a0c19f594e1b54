package serve

import (
	"reflect"
	"testing"
)

// SplitAddrs reads the comma-separated -addr/-hosts flag syntax cupd
// and cupload share: whitespace trimmed, empty elements dropped.
func TestSplitAddrs(t *testing.T) {
	for in, want := range map[string][]string{
		"":                       nil,
		" , ,":                   nil,
		"127.0.0.1:8080":         {"127.0.0.1:8080"},
		" :8080, ,127.0.0.1:81 ": {":8080", "127.0.0.1:81"},
	} {
		if got := SplitAddrs(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitAddrs(%q) = %q, want %q", in, got, want)
		}
	}
}
