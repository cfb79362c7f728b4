// Package pow implements proof-of-work consensus as used by the
// Ethereum preset: continuous mining over the node's own transaction
// pool, per-block difficulty retargeting toward a configured block
// interval, longest-(heaviest-)chain fork choice with reorgs, and block
// gossip with catch-up sync. Forks are first-class: the security
// experiment counts blocks that end up off the main branch.
package pow

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

// Options tunes the miner.
type Options struct {
	// TargetInterval is the desired network-wide block interval; the
	// difficulty controller steers toward it (the paper's geth testnet
	// was tuned to ~2.5s per block; the repository default is 100ms at
	// the 25x time scale).
	TargetInterval time.Duration
	// InitialDifficulty in expected hashes per block.
	InitialDifficulty uint64
	// MinDifficulty floors the retarget.
	MinDifficulty uint64
	// GasLimit bounds the summed gas of a block's transactions — the
	// geth miner's gasLimit knob, which the block-size experiment tunes.
	// The miner puts it in every header it builds, whose block it bounds.
	GasLimit uint64
}

// DefaultOptions returns the Ethereum-preset defaults: the one place
// they are stated (the preset starts from it and overlays -popt keys).
func DefaultOptions() Options {
	return Options{
		TargetInterval:    100 * time.Millisecond,
		InitialDifficulty: 2_000_000,
		MinDifficulty:     50_000,
		GasLimit:          650_000,
	}
}

// batchFetch is the per-block over-fetch from the pool, in
// transactions; the block gas limit decides how many of them fit.
const batchFetch = 512

// Engine is one node's PoW miner + block handler.
type Engine struct {
	ctx  consensus.Context
	opts Options

	stop    chan struct{}
	done    sync.WaitGroup
	started atomic.Bool

	orphans consensus.Orphans // blocks whose parents are not yet known

	hashes atomic.Uint64 // total hash attempts, drives the CPU figure
	mined  atomic.Uint64
}

// New creates a PoW engine from resolved options (the preset starts
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
	go e.mineLoop()
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
	return map[string]uint64{
		"pow.hashes": e.hashes.Load(),
		"pow.mined":  e.mined.Load(),
	}
}

// nextDifficulty retargets off the parent with a damped proportional
// controller: the difficulty moves a quarter of the way toward the
// value implied by the observed block interval, with the per-block
// correction bounded to [0.5x, 2x]. Block intervals are exponentially
// distributed, so the damping trades convergence speed against
// oscillation — like Ethereum's retarget, compressed to converge within
// tens of blocks instead of thousands.
func (e *Engine) nextDifficulty(parent *types.Block) uint64 {
	diff := parent.Header.Difficulty
	if diff < e.opts.MinDifficulty {
		// Genesis or a preloaded (consensus-bypassing) parent.
		return e.opts.InitialDifficulty
	}
	interval := time.Duration(time.Now().UnixNano() - parent.Header.Time)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ratio := float64(e.opts.TargetInterval) / float64(interval)
	if ratio > 2 {
		ratio = 2
	} else if ratio < 0.5 {
		ratio = 0.5
	}
	step := (3 + ratio) / 4 // move 25% of the way toward the estimate
	next := uint64(float64(diff) * step)
	if next < e.opts.MinDifficulty {
		next = e.opts.MinDifficulty
	}
	return next
}

// SealOK verifies the proof-of-work: H(sealHash || nonce) interpreted as
// a 64-bit integer must fall below 2^64 / difficulty.
func SealOK(h *types.Header) bool {
	if h.Difficulty == 0 {
		return false
	}
	target := ^uint64(0) / h.Difficulty
	seal := h.SealHash()
	var buf [types.HashSize + 8]byte
	copy(buf[:], seal[:])
	binary.LittleEndian.PutUint64(buf[types.HashSize:], h.PowNonce)
	digest := types.HashData(buf[:])
	return binary.LittleEndian.Uint64(digest[:8]) < target
}

// mineLoop repeatedly builds a candidate on the current head and
// searches for a seal, restarting whenever the head moves.
func (e *Engine) mineLoop() {
	defer e.done.Done()
	rng := uint64(e.ctx.Self)*0x9e3779b97f4a7c15 + 1
	for {
		select {
		case <-e.stop:
			return
		default:
		}
		parent := e.ctx.Chain.Head()
		diff := e.nextDifficulty(parent)
		// Over-fetch by count; Build trims to the block gas limit based
		// on gas actually consumed.
		txs := e.ctx.Pool.Batch(batchFetch, 0)
		for _, tx := range txs {
			e.ctx.Tracer.Stamp(tx.Hash(), trace.StagePropose)
		}
		block, err := e.ctx.Chain.Build(txs, ledger.Meta{Proposer: e.ctx.Address, Difficulty: diff,
			Time: time.Now().UnixNano(), GasLimit: e.opts.GasLimit})
		if err != nil {
			// Head may have moved mid-build; retry.
			continue
		}
		if e.seal(block, parent.Hash(), &rng) {
			if err := e.ctx.Chain.Append(block); err == nil {
				e.mined.Add(1)
				e.ctx.Endpoint.Broadcast(consensus.MsgBlock, block)
			}
		}
	}
}

// seal searches nonces in batches, aborting when the head changes or
// the engine stops. Returns true when block is sealed.
func (e *Engine) seal(block *types.Block, parent types.Hash, rng *uint64) bool {
	sealHash := block.Header.SealHash()
	target := ^uint64(0) / block.Header.Difficulty
	var buf [types.HashSize + 8]byte
	copy(buf[:], sealHash[:])
	const batch = 2048
	for {
		for i := 0; i < batch; i++ {
			*rng = *rng*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(buf[types.HashSize:], *rng)
			digest := types.HashData(buf[:])
			if binary.LittleEndian.Uint64(digest[:8]) < target {
				e.hashes.Add(uint64(i + 1))
				block.Header.PowNonce = *rng
				return true
			}
		}
		e.hashes.Add(batch)
		select {
		case <-e.stop:
			return false
		default:
		}
		if e.ctx.Chain.Head().Hash() != parent {
			return false // someone else extended the chain; rebuild
		}
		runtime.Gosched()
	}
}

// Handle implements consensus.Engine: sync traffic, and gossiped blocks
// that carry a valid seal.
func (e *Engine) Handle(msg simnet.Message) {
	e.orphans.Handle(e.ctx, msg, func(b *types.Block) bool { return SealOK(&b.Header) })
}
