// Package trace is a stub of the real trace package: order matches
// emission calls by import path, so the fixture module mirrors it.
package trace

// Emit records one event.
func Emit(args ...any) {}
