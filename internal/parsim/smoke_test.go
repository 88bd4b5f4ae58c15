//go:build !scale

package parsim

// smokeNodes is TestMillionNodeSmoke's network size in tier-1. The scale
// build tag runs it at 10⁶ (go test -tags scale -run MillionNodeSmoke
// ./internal/parsim/, nightly).
const smokeNodes = 100_000
