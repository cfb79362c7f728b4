// Package consensus defines the interface between a blockchain node and
// its consensus engine, the Runner that turns a clock-free core into
// one, and the block gossip and synchronization protocol shared by the
// forking engines (PoW, PoA). The engines — proof-of-work (Ethereum),
// proof-of-authority (Parity), PBFT (Hyperledger Fabric v0.6) and Raft
// (Quorum) — live in subpackages; the sharded gateway
// (internal/sharding) is the fifth.
package consensus

import (
	"sync"

	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// Message type tags on the simulated network.
const (
	MsgTx       = "tx"        // *types.Transaction gossip
	MsgBlock    = "block"     // *types.Block propagation (PoW/PoA)
	MsgSyncReq  = "sync_req"  // *SyncReq: give me blocks after height H
	MsgSyncResp = "sync_resp" // *SyncResp: canonical blocks in order
)

// Net is the wire as an engine sees it: the two calls every engine makes
// on its node's *simnet.Endpoint. A core-level test substitutes a
// recorder and delivers the messages by hand.
type Net interface {
	// Send transmits to one peer, reporting false if the message was
	// dropped at origin.
	Send(to simnet.NodeID, typ string, payload any) bool
	// Broadcast sends to every other peer.
	Broadcast(typ string, payload any)
}

// Context carries the node-side dependencies an engine needs.
type Context struct {
	Self     simnet.NodeID
	Endpoint Net
	Chain    *ledger.Chain
	Pool     *txpool.Pool
	Address  types.Address
	Peers    []simnet.NodeID // all nodes including self
	// Tracer is the cluster's lifecycle tracer (nil-safe); engines stamp
	// StagePropose when a proposal first includes a transaction.
	Tracer *trace.Tracer
	// Meta is the node's store, which survives a process kill: an engine
	// keeps its hard state there under keys of its own ("meta:..."). Nil
	// where the preset does not recover durably: nothing persists.
	Meta kvstore.Store
}

// Engine is a consensus protocol instance driving one node.
type Engine interface {
	// Start launches the engine's goroutines: its runner's goroutine;
	// PoW's mining loop.
	Start()
	// Stop halts them. Engines must tolerate Stop before Start.
	Stop()
	// Handle processes one network message; one that is not this
	// engine's is ignored.
	Handle(msg simnet.Message)
}

// PickBatch appends to dst up to size pending transactions from pool
// that are not in inFlight, over-fetching by len(inFlight) so in-flight
// ones do not crowd out new ones. Candidates are fetched into dst's
// spare capacity and filtered in place. The caller marks what it
// proposes, and copies what it keeps if dst is its scratch.
func PickBatch(dst []*types.Transaction, pool *txpool.Pool, size int, inFlight map[types.Hash]bool) []*types.Transaction {
	all := pool.AppendBatch(dst, size+len(inFlight), 0)
	out := all[:len(dst)]
	for _, tx := range all[len(dst):] {
		if inFlight[tx.Hash()] {
			continue
		}
		out = append(out, tx)
		if len(out)-len(dst) >= size {
			break
		}
	}
	return out
}

// Locator identifies one block on the requester's canonical chain.
type Locator struct {
	Number uint64
	Hash   types.Hash
}

// SyncReq asks a peer for canonical blocks past the newest locator the
// peer recognizes. The locator list walks back from the requester's head
// with exponentially growing gaps (as in Bitcoin's getblocks), so peers
// on a different fork can still find the common ancestor.
type SyncReq struct{ Locators []Locator }

// WireSize implements simnet.Sizer.
func (r *SyncReq) WireSize() int { return 8 + len(r.Locators)*(8+types.HashSize) }

// SyncResp carries a batch of canonical blocks.
type SyncResp struct{ Blocks []*types.Block }

// WireSize implements simnet.Sizer.
func (r *SyncResp) WireSize() int {
	n := 8
	for _, b := range r.Blocks {
		n += b.WireSize()
	}
	return n
}

// maxSyncBatch bounds one sync response; laggards re-request.
const maxSyncBatch = 128

// HandleSync implements both sides of the sync protocol. It returns true
// if the message was a sync message.
func HandleSync(ctx Context, msg simnet.Message) bool {
	switch msg.Type {
	case MsgSyncReq:
		req, ok := msg.Payload.(*SyncReq)
		if !ok || msg.Corrupt {
			return true
		}
		// Find the newest locator that is on our canonical chain; send
		// everything after it (which may replace the requester's fork).
		var from uint64
		for _, loc := range req.Locators {
			if b, ok := ctx.Chain.GetBlock(loc.Number); ok && b.Hash() == loc.Hash {
				from = loc.Number
				break
			}
		}
		blocks := ctx.Chain.BlocksFrom(from, maxSyncBatch)
		if len(blocks) > 0 {
			ctx.Endpoint.Send(msg.From, MsgSyncResp, &SyncResp{Blocks: blocks})
		}
		return true
	case MsgSyncResp:
		resp, ok := msg.Payload.(*SyncResp)
		if !ok || msg.Corrupt {
			return true
		}
		for _, b := range resp.Blocks {
			if err := ctx.Chain.Append(b); err != nil {
				break
			}
		}
		return true
	}
	return false
}

// RequestSync asks peer for everything past our chain, sending a locator
// walk so the peer can find the fork point if our head is on a dead
// branch.
func RequestSync(ctx Context, peer simnet.NodeID) {
	head := ctx.Chain.Height()
	var locs []Locator
	step := uint64(1)
	for n := head; ; {
		if b, ok := ctx.Chain.GetBlock(n); ok {
			locs = append(locs, Locator{Number: n, Hash: b.Hash()})
		}
		if n == 0 || len(locs) >= 32 {
			break
		}
		if n < step {
			n = 0
		} else {
			n -= step
		}
		if len(locs) >= 8 {
			step *= 2
		}
	}
	ctx.Endpoint.Send(peer, MsgSyncReq, &SyncReq{Locators: locs})
}

// maxOrphans bounds the orphan buffer; a block dropped past it comes
// back with the sync response its arrival requested.
const maxOrphans = 256

// Orphans is the receiving half of block gossip for the forking
// engines: a block whose parent is not yet known waits here while a
// sync request to its sender fetches the gap. The zero value is ready.
type Orphans struct {
	mu     sync.Mutex
	blocks map[types.Hash]*types.Block
}

// Handle processes sync traffic and MsgBlock gossip for an engine whose
// consensus rule accepts exactly the blocks valid reports true for;
// anything else is ignored.
func (o *Orphans) Handle(ctx Context, msg simnet.Message, valid func(*types.Block) bool) {
	if HandleSync(ctx, msg) {
		o.drain(ctx)
		return
	}
	b, ok := msg.Payload.(*types.Block)
	if !ok || msg.Type != MsgBlock || msg.Corrupt || ctx.Chain.Has(b.Hash()) || !valid(b) {
		return
	}
	switch err := ctx.Chain.Append(b); err {
	case nil:
		o.drain(ctx)
	case ledger.ErrUnknownParent:
		o.mu.Lock()
		if o.blocks == nil {
			o.blocks = make(map[types.Hash]*types.Block)
		}
		if len(o.blocks) < maxOrphans {
			o.blocks[b.Hash()] = b
		}
		o.mu.Unlock()
		RequestSync(ctx, msg.From)
	default:
		// Invalid block: drop.
	}
}

// drain retries buffered blocks whose parents may now be known.
func (o *Orphans) drain(ctx Context) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for progress := true; progress; {
		progress = false
		for h, b := range o.blocks {
			if err := ctx.Chain.Append(b); err != ledger.ErrUnknownParent {
				delete(o.blocks, h)
				if err == nil {
					progress = true
				}
			}
		}
	}
}
