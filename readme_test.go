package cup_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadmeArchitectureMatchesTree keeps README's architecture block
// from drifting: every file or directory it names exists (an entry
// indented under a directory lives in it), and every directory under
// internal/ is named.
func TestReadmeArchitectureMatchesTree(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "## Architecture\n\n```\n")
	if !ok {
		t.Fatal("README has no Architecture code block")
	}
	block, _, _ = strings.Cut(block, "```")
	named := map[string]bool{}
	parent := ""
	for _, line := range strings.Split(block, "\n") {
		name, _, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if indent > 2 || !(strings.HasSuffix(name, "/") || strings.HasSuffix(name, ".go")) {
			continue // a description's continuation line
		}
		path := name
		if indent == 2 {
			path = parent + name
		} else if strings.HasSuffix(name, "/") {
			parent = name
		}
		named[filepath.Clean(path)] = true
		if _, err := os.Stat(path); err != nil {
			t.Errorf("README's architecture block names %s: %v", path, err)
		}
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if p := filepath.Join("internal", d.Name()); d.IsDir() && !named[p] {
			t.Errorf("%s/ is missing from README's architecture block", p)
		}
	}
}
