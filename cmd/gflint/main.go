// Command gflint runs the repository's determinism-and-correctness
// static analyzer suite (internal/lint) over module packages.
//
// Usage:
//
//	gflint ./...                 # all packages, text output
//	gflint -json ./internal/...  # JSON diagnostics
//	gflint -checks order,wallclock ./internal/core
//	gflint -list                 # available analyzers
//
// Exit status: 0 clean, 1 findings, 2 errors. CI runs `gflint ./...`
// as a merge gate. Suppress a finding with a justified directive on
// the flagged line or the line above:
//
//	//gflint:ignore <check> <one-line justification>
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
