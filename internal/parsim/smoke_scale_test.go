//go:build scale

package parsim

// smokeNodes is TestMillionNodeSmoke's full 10⁶ nodes, under the scale
// build tag.
const smokeNodes = 1_000_000
