// Package poa implements Proof-of-Authority consensus as used by the
// Parity preset: "a set of authorities are pre-determined and each
// authority is assigned a fixed time slot within which it can generate
// blocks". Block production is driven by a step clock (Parity's
// stepDuration); the authority whose turn it is seals a block whether or
// not transactions are pending. Forks can still occur under partition
// (each side keeps its own step schedule), which the security experiment
// measures.
package poa

import (
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/simnet"
	"blockbench/internal/types"
)

// Options tunes the authority engine.
type Options struct {
	// StepDuration is the slot width (Parity's stepDuration; the paper
	// set 1s, the repository default is 40ms at the 25x time scale).
	StepDuration time.Duration
	// Authorities is the ordered authority set; the slot owner is
	// Authorities[step mod len].
	Authorities []types.Address
}

// DefaultOptions returns the Parity-preset defaults (the authority set
// is per cluster and has none).
func DefaultOptions() Options {
	return Options{StepDuration: 40 * time.Millisecond}
}

// maxTxsPerBlock caps a sealed block: Parity's block-size knob is
// stepDuration itself, but a hard cap keeps memory bounded.
const maxTxsPerBlock = 4096

// Engine is one authority node.
type Engine struct {
	ctx  consensus.Context
	opts Options

	stop    chan struct{}
	done    sync.WaitGroup
	started atomic.Bool
	sealed  atomic.Uint64

	orphans consensus.Orphans // blocks whose parents are not yet known
}

// New creates a PoA engine from resolved options (the preset starts
// from DefaultOptions).
func New(ctx consensus.Context, opts Options) *Engine {
	return &Engine{ctx: ctx, opts: opts, stop: make(chan struct{})}
}

// Start implements consensus.Engine.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.done.Add(1)
	go e.stepLoop()
}

// Stop implements consensus.Engine.
func (e *Engine) Stop() {
	if e.started.CompareAndSwap(true, false) {
		close(e.stop)
		e.done.Wait()
	}
}

// Counters implements metrics.CounterProvider.
func (e *Engine) Counters() map[string]uint64 {
	return map[string]uint64{"poa.sealed": e.sealed.Load()}
}

func (e *Engine) myTurn(step int64) bool {
	n := int64(len(e.opts.Authorities))
	if n == 0 {
		return false
	}
	return e.opts.Authorities[step%n] == e.ctx.Address
}

func (e *Engine) stepLoop() {
	defer e.done.Done()
	tick := time.NewTicker(e.opts.StepDuration)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case now := <-tick.C:
			step := now.UnixNano() / int64(e.opts.StepDuration)
			if !e.myTurn(step) {
				continue
			}
			txs := e.ctx.Pool.Batch(maxTxsPerBlock, 0)
			block, err := e.ctx.Chain.ProposeBlock(txs, e.ctx.Address, 1, uint64(step))
			if err != nil {
				continue
			}
			if err := e.ctx.Chain.Append(block); err != nil {
				continue
			}
			e.sealed.Add(1)
			e.ctx.Endpoint.Broadcast(consensus.MsgBlock, block)
		}
	}
}

// Handle implements consensus.Engine: sync traffic, and gossiped blocks
// sealed by the authority that owned their step.
func (e *Engine) Handle(msg simnet.Message) bool {
	return e.orphans.Handle(e.ctx, msg, e.validProposer)
}

// validProposer checks the block's proposer is an authority that owned
// the block's step.
func (e *Engine) validProposer(b *types.Block) bool {
	n := uint64(len(e.opts.Authorities))
	if n == 0 {
		return false
	}
	return e.opts.Authorities[b.Header.View%n] == b.Header.Proposer
}
