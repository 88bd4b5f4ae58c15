//go:build race

// Package race reports whether the race detector is compiled in, so
// allocation gates can skip themselves: the detector's instrumentation
// allocates.
package race

// Enabled is true in -race builds.
const Enabled = true
