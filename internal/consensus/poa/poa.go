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
	"time"

	"blockbench/internal/consensus"
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

// Engine is one authority node: a core behind a runner, which is the
// consensus.Engine. The core handles sync traffic and gossiped blocks
// sealed by the authority that owned their step.
type Engine struct {
	*consensus.Runner // its mutex guards the core
	*core
}

// New creates a PoA engine from resolved options (the preset starts
// from DefaultOptions).
func New(ctx consensus.Context, opts Options) *Engine {
	e := &Engine{core: &core{ctx: ctx, opts: opts}}
	e.Runner = consensus.NewRunner(e.step, nil)
	return e
}

// Counters implements metrics.CounterProvider.
func (e *Engine) Counters() map[string]uint64 {
	e.Lock()
	defer e.Unlock()
	return map[string]uint64{"poa.sealed": e.sealed}
}
