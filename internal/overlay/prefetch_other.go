//go:build !amd64

package overlay

// prefetchRow is a no-op where the package has no prefetch instruction.
func prefetchRow(*uint64) {}
