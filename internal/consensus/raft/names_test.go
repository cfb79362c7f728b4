package raft

import (
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/simnet"
)

// The tests drive cores by the names they had before the core was
// exported for sharding's gateway (NewCore, Step).

func newCore(ctx consensus.Context, opts Options, now time.Time) *core {
	return NewCore(ctx, opts, now)
}

func (c *core) step(now time.Time, msg simnet.Message) time.Time { return c.Step(now, msg) }
