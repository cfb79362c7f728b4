// Package pbft implements Practical Byzantine Fault Tolerance as used by
// the Hyperledger Fabric v0.6 preset: three-phase agreement
// (pre-prepare / prepare / commit) over transaction batches, 2f+1
// quorums with f = (n-1)/3, pipelined instances, and view changes with
// prepared-certificate carryover. Progress requires a live quorum, so
// blocks are final the moment they commit — the protocol never forks,
// which is exactly what the paper's partition attack shows (no stale
// blocks, but a longer recovery after the partition heals).
//
// The engine processes all messages on a single goroutine per node (the
// node's inbox loop). Combined with simnet's bounded inboxes this
// reproduces the failure mode the paper found at scale: "consensus
// messages are rejected ... on account of the message channel being
// full", so views diverge and consensus stalls beyond ~16 nodes.
//
// The package is split along the consensus seam (DESIGN.md): core.go is
// the protocol behind one step(now, event), with no lock, clock or
// goroutine; Engine here is that core behind a consensus.Runner.
package pbft

import (
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/types"
)

// Message type tags.
const (
	MsgPrePrepare = "pbft_preprepare"
	MsgPrepare    = "pbft_prepare"
	MsgCommit     = "pbft_commit"
	MsgViewChange = "pbft_viewchange"
)

// PrePrepare proposes a batch at (view, seq).
type PrePrepare struct {
	View, Seq uint64
	Txs       []*types.Transaction
}

// WireSize implements simnet.Sizer.
func (m *PrePrepare) WireSize() int {
	n := 24
	for _, tx := range m.Txs {
		n += tx.WireSize()
	}
	return n
}

// Vote is a prepare or commit for the batch at (view, seq). Replicas
// key every instance by (view, seq) and are honest, so the model carries
// no batch digest; WireSize still counts the real message's.
type Vote struct {
	View, Seq uint64
}

// WireSize implements simnet.Sizer.
func (*Vote) WireSize() int { return 24 + types.HashSize }

// PreparedProof carries a batch prepared in View but not executed into
// a view change, so the new primary can re-propose it (the safety-critical
// part of PBFT's new-view protocol, simplified: proofs are trusted because
// simulated nodes are honest; Byzantine behaviour enters via the network
// fault injectors instead). Of two proofs for one seq, the higher view's wins.
type PreparedProof struct {
	View, Seq uint64
	Txs       []*types.Transaction
}

// ViewChange votes to move to NewView. Like Vote, it is sized as the
// real message, with the sender's height and each proof's digest.
type ViewChange struct {
	NewView  uint64
	Prepared []PreparedProof
}

// WireSize implements simnet.Sizer.
func (m *ViewChange) WireSize() int {
	n := 48
	for _, p := range m.Prepared {
		n += 16 + types.HashSize
		for _, tx := range p.Txs {
			n += tx.WireSize()
		}
	}
	return n
}

// Options tunes the protocol.
type Options struct {
	// BatchSize is the number of transactions per consensus batch
	// (Fabric's batchSize; the paper's default is 500, the repository
	// default 20 at the 25x scale).
	BatchSize int
	// BatchTimeout proposes a partial batch after this long.
	BatchTimeout time.Duration
	// ViewTimeout triggers a view change when no progress happens while
	// work is outstanding. Doubles on consecutive failed views.
	ViewTimeout time.Duration
}

// window is the number of concurrently in-flight instances. It has one
// value in use, so it is not an option.
const window = 8

// DefaultOptions returns the Hyperledger-preset defaults: the one place
// they are stated (the preset starts from it and overlays -popt keys).
func DefaultOptions() Options {
	return Options{
		BatchSize:    20,
		BatchTimeout: 15 * time.Millisecond,
		ViewTimeout:  400 * time.Millisecond,
	}
}

// Engine is one PBFT replica: a core behind a runner, which is the
// consensus.Engine.
type Engine struct {
	*consensus.Runner // its mutex guards the core
	*core
}

// New creates a PBFT engine from resolved options (the preset and tests
// start from DefaultOptions). All peers run replicas.
func New(ctx consensus.Context, opts Options) *Engine {
	e := &Engine{core: newCore(ctx, opts, time.Now())}
	e.Runner = consensus.NewRunner(e.step, nil)
	return e
}

// Counters implements metrics.CounterProvider.
func (e *Engine) Counters() map[string]uint64 {
	e.Lock()
	defer e.Unlock()
	return map[string]uint64{
		"pbft.view_changes": e.viewChanges,
		"pbft.batches":      e.batchesDone,
	}
}
