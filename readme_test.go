package cup_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cup"
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

// TestReadmeMetricsCatalogMatchesRegistry keeps README's metrics
// catalog from drifting: the series its first column names are exactly
// the ones a simulated and a live serving deployment register with
// telemetry on, no more and no fewer.
func TestReadmeMetricsCatalogMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, ok := strings.Cut(string(readme), "### Metrics catalog\n\n")
	if !ok {
		t.Fatal("README has no Metrics catalog section")
	}
	catalog, _, _ = strings.Cut(catalog, "\n\n") // the table, up to the blank line that ends it
	series := regexp.MustCompile("`(cup_[a-z_]+)`")
	listed := map[string]bool{}
	for _, row := range strings.Split(catalog, "\n") {
		cols := strings.Split(row, "|")
		if len(cols) < 2 {
			continue
		}
		for _, m := range series.FindAllStringSubmatch(cols[1], -1) {
			listed[m[1]] = true
		}
	}
	if len(listed) == 0 {
		t.Fatal("README's Metrics catalog lists no series")
	}

	registered := map[string]bool{}
	for _, opts := range [][]cup.Option{
		{cup.WithTelemetry("")},
		{cup.WithLive(), cup.WithNodes(4), cup.WithServing("127.0.0.1:0"), cup.WithTelemetry("")},
	} {
		d := newDeployment(t, opts...)
		for _, m := range d.Metrics() {
			registered[m.Name] = true
		}
	}
	for name := range listed {
		if !registered[name] {
			t.Errorf("README's metrics catalog lists %s, which no deployment registers", name)
		}
	}
	for name := range registered {
		if !listed[name] {
			t.Errorf("%s is registered but missing from README's metrics catalog", name)
		}
	}
}
