//go:build tools

// Package tools pins the module's command-line tool dependencies on the
// build graph, following the standard tools.go convention. The module
// is deliberately dependency-free, so the only pinned tool is the
// in-module linter:
//
//	go install cup/cmd/cuplint
//
// installs the exact suite CI runs (see .github/workflows/ci.yml), and
// `cuplint ./...` reproduces the lint job locally. staticcheck is
// intentionally NOT pinned here: adding it
// would put an external requirement in go.mod, and keeping the module
// zero-dependency is a project constraint — CI pins its version with
// the STATICCHECK_VERSION environment variable instead.
package tools

import (
	_ "cup/cmd/cuplint"
)
