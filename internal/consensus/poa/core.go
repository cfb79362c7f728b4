package poa

import (
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

// core is one authority's state and logic behind one step, like the
// Raft and PBFT cores (DESIGN.md § Consensus seam): no lock, no clock, no
// goroutine.
type core struct {
	ctx     consensus.Context
	opts    Options
	slot    int64             // the last slot a step fell in
	sealed  uint64            // blocks sealed here
	orphans consensus.Orphans // blocks whose parents are not yet known
}

// step handles sync traffic and gossiped blocks, seals a block if now
// has crossed into a slot this authority owns — once per slot, and never
// for a slot that has already passed — and asks to be woken at the next
// slot boundary.
func (c *core) step(now time.Time, msg simnet.Message) time.Time {
	c.orphans.Handle(c.ctx, msg, c.validProposer)
	width := int64(c.opts.StepDuration)
	if slot := now.UnixNano() / width; slot > c.slot {
		c.slot = slot
		if c.myTurn(slot) {
			c.seal(now, uint64(slot))
		}
	}
	return time.Unix(0, (c.slot+1)*width)
}

func (c *core) myTurn(step int64) bool {
	n := int64(len(c.opts.Authorities))
	return n > 0 && c.opts.Authorities[step%n] == c.ctx.Address
}

// seal builds, appends and gossips the block for a slot, whether or
// not transactions are pending.
func (c *core) seal(now time.Time, slot uint64) {
	txs := c.ctx.Pool.Batch(maxTxsPerBlock, 0)
	for _, tx := range txs {
		c.ctx.Tracer.Stamp(tx.Hash(), trace.StagePropose)
	}
	block, err := c.ctx.Chain.Build(txs, ledger.Meta{Proposer: c.ctx.Address, Difficulty: 1, View: slot, Time: now.UnixNano()})
	if err != nil || c.ctx.Chain.Append(block) != nil {
		return
	}
	c.sealed++
	c.ctx.Endpoint.Broadcast(consensus.MsgBlock, block)
}

// validProposer checks the block's proposer is an authority that owned
// the block's step.
func (c *core) validProposer(b *types.Block) bool {
	n := uint64(len(c.opts.Authorities))
	return n > 0 && c.opts.Authorities[b.Header.View%n] == b.Header.Proposer
}
