// Package txpool implements the pending-transaction pool each node keeps
// between transaction arrival (client RPC or gossip) and block inclusion.
//
// The pool is one FIFO slice plus a duplicate-suppression index under
// one mutex: Add, Batch and MarkIncluded each take it once. (A 16-shard
// variant lost to this on the contention benchmark that had justified
// it; the numbers are in EXPERIMENTS.md § Retired baselines.) Inclusion
// uses tombstones instead of rewriting the pending slice, so
// MarkIncluded is O(batch) amortized rather than O(pool).
package txpool

import (
	"slices"
	"sync"

	"blockbench/internal/crypto"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

// entry is one pending transaction.
type entry struct {
	tx   *types.Transaction
	hash types.Hash
	dead bool // included (tombstoned), awaiting compaction
}

// Pool is a FIFO pending pool with duplicate suppression. Transactions
// seen before (pending or already included) are rejected, which keeps
// gossip loops from amplifying traffic.
type Pool struct {
	mu      sync.Mutex
	pending []entry
	// index maps a hash to its position in pending, or -1 once the
	// transaction has been included (so duplicates are still rejected).
	index  map[types.Hash]int
	head   int // first possibly-live position in pending
	dead   int // tombstones at or after head
	limit  int
	notify chan struct{}
	tracer *trace.Tracer
	verify *crypto.Registry // nil: admit anything
}

// New creates a pool that holds at most limit pending transactions
// (0 means unbounded).
func New(limit int) *Pool {
	return &Pool{limit: limit, index: make(map[types.Hash]int), notify: make(chan struct{}, 1)}
}

// SetTracer attaches the cluster's lifecycle tracer; sampled
// transactions are stamped at pool admission (Add) and batch pickup
// (Batch). Call before the pool is shared across goroutines.
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// SetVerifier makes Add admit only what reg verifies: the node's registry,
// so every way into a node (RPC, gossip, sharded forwards and 2PC) pays
// its signature check before the commit path. Call before sharing the pool.
func (p *Pool) SetVerifier(reg *crypto.Registry) { p.verify = reg }

// Notify returns the pool's admission signal: a 1-buffered channel that
// receives (coalesced, non-blocking) whenever a transaction enters the
// pending set via Add or Reinject. An event-driven consumer — the Raft
// engine's propose-time replication — selects on it instead of polling
// the pool on a timer; a drained signal may cover any number of
// admissions.
func (p *Pool) Notify() <-chan struct{} { return p.notify }

func (p *Pool) signal() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// live counts pending transactions. Called with the lock held.
func (p *Pool) live() int { return len(p.pending) - p.head - p.dead }

// Add inserts tx unless it is known, fails verification (checked outside
// the lock) or the pool is full. It reports whether tx was accepted as new.
func (p *Pool) Add(tx *types.Transaction) bool {
	h := tx.Hash()
	if p.verify != nil && (p.Known(h) || !p.verify.VerifyTx(tx)) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, known := p.index[h]; known {
		return false
	}
	if p.limit > 0 && p.live() >= p.limit {
		return false
	}
	p.index[h] = len(p.pending)
	p.pending = append(p.pending, entry{tx: tx, hash: h})
	p.tracer.Stamp(h, trace.StageAdmit)
	p.signal()
	return true
}

// Known reports whether the pool has ever seen tx.
func (p *Pool) Known(h types.Hash) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.index[h]
	return ok
}

// Batch returns AppendBatch(nil, maxTxs, gasLimit) in a slice of its own.
func (p *Pool) Batch(maxTxs int, gasLimit uint64) []*types.Transaction {
	return p.AppendBatch(nil, maxTxs, gasLimit)
}

// AppendBatch appends to dst up to maxTxs pending transactions (0: no
// bound) whose gas limits sum to at most gasLimit (0 disables the gas
// constraint), in arrival order, walking the live head of the FIFO in
// place. Transactions stay pending until MarkIncluded.
func (p *Pool) AppendBatch(dst []*types.Transaction, maxTxs int, gasLimit uint64) []*types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.head < len(p.pending) && p.pending[p.head].dead {
		p.head++
		p.dead--
	}
	p.maybeCompact()
	n := p.live()
	if maxTxs > 0 && maxTxs < n {
		n = maxTxs
	}
	out := slices.Grow(dst, n)
	var gas uint64
	for i := p.head; i < len(p.pending) && len(out)-len(dst) < n; i++ {
		e := &p.pending[i]
		if e.dead {
			continue
		}
		if gasLimit > 0 && gas+e.tx.GasLimit > gasLimit {
			break
		}
		gas += e.tx.GasLimit
		p.tracer.Stamp(e.hash, trace.StageBatch)
		out = append(out, e.tx)
	}
	return out
}

// MarkIncluded removes the given transactions from the pending set while
// remembering their hashes so duplicates are still rejected. Removal
// tombstones the entry in place; the slice is compacted only once
// tombstones dominate, keeping the per-block cost proportional to the
// batch rather than the pool.
func (p *Pool) MarkIncluded(txs []*types.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range txs {
		h := tx.Hash()
		if pos, known := p.index[h]; known && pos >= 0 {
			p.pending[pos].dead = true
			p.dead++
		}
		p.index[h] = -1
	}
	p.maybeCompact()
}

// maybeCompact rebuilds the pending slice once the wasted entries —
// the consumed prefix before head plus tombstones past it — outnumber
// the live ones, restoring index positions and releasing the retained
// transactions. The doubling threshold keeps removal O(1) amortized.
// Called with the lock held.
func (p *Pool) maybeCompact() {
	live := p.live()
	if waste := p.head + p.dead; waste <= live || waste < 64 {
		return
	}
	kept := make([]entry, 0, live)
	for _, e := range p.pending[p.head:] {
		if !e.dead {
			p.index[e.hash] = len(kept)
			kept = append(kept, e)
		}
	}
	p.pending = kept
	p.head = 0
	p.dead = 0
}

// Reinject returns transactions to the pending set even if they were
// previously marked included — used when a chain reorganization drops
// the blocks that contained them.
func (p *Pool) Reinject(txs []*types.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range txs {
		h := tx.Hash()
		if pos, known := p.index[h]; known && pos >= 0 {
			continue // still pending
		}
		p.index[h] = len(p.pending)
		p.pending = append(p.pending, entry{tx: tx, hash: h})
		p.signal()
	}
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live()
}
