// Package parsim is the former home of the sharded engine, which now is
// internal/sim's one engine (K = Config.Shards). The package exists only
// because bench/sim.go and bench/ladder.go, which a non-benchmark change
// may not edit, name parsim.Config, parsim.Engine, parsim.New and
// parsim.Newscast; nothing else imports it.
package parsim

import (
	"runtime"

	"antientropy/internal/sim"
)

// Config and Engine are the one engine's types.
type (
	Config = sim.Config
	Engine = sim.Engine
)

// Newscast is sim.Newscast.
func Newscast(c int) sim.OverlaySpec { return sim.Newscast(c) }

// New is sim.New with this package's historical reading of a zero shard
// count: GOMAXPROCS instead of 1.
func New(cfg Config) (*Engine, error) { return sim.New(autoShards(cfg)) }

// Run is sim.Run with New's reading of a zero shard count.
func Run(cfg Config) (*Engine, error) { return sim.Run(autoShards(cfg)) }

func autoShards(cfg Config) Config {
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	return cfg
}
