package serve

import "strings"

// SplitAddrs parses the comma-separated listen-address flag syntax the
// serving commands (cupd, cupload) share, dropping empty
// elements and surrounding whitespace.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
