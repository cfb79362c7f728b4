// Package ledger implements per-node chain management: block validation
// and execution, canonical-chain selection by total difficulty (with
// reorgs for the forking PoW/PoA platforms), receipts, and the
// block-range queries that the BLOCKBENCH driver polls
// (getLatestBlock(h) in the paper's connector interface).
package ledger

import (
	"errors"
	"fmt"
	"sync"

	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/merkle"
	"blockbench/internal/state"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

// Chain errors.
var (
	ErrUnknownParent = errors.New("ledger: unknown parent")
	ErrBadBlock      = errors.New("ledger: invalid block")
	ErrNoForks       = errors.New("ledger: platform does not fork")
)

// BlockExecutor applies a whole transaction list to a state database,
// returning one receipt per transaction in order. Implementations must
// leave db's overlay byte-identical to serial execution with
// Config.Engine (the parallel executor in internal/exec/parallel is
// the one shipped implementation).
type BlockExecutor interface {
	ExecuteBlock(eng exec.Engine, db *state.DB, txs []*types.Transaction, blockNum uint64) []*types.Receipt
}

// Config assembles a chain.
type Config struct {
	// Engine executes transactions.
	Engine exec.Engine
	// Parallel, when non-nil, executes block transaction lists through
	// the optimistic intra-block scheduler instead of the serial loop.
	// Blocks under a gas limit stay serial: inclusion is decided per
	// transaction in sequence order there.
	Parallel BlockExecutor
	// StateFactory opens a state database at the given root. Platforms
	// without state versioning (Hyperledger's bucket tree) may return a
	// process-wide singleton; they must also set SupportsForks=false.
	// A DB it returns may serve many blocks: the chain executes a block
	// on the DB its parent committed on, when it kept that (Chain.kept).
	StateFactory func(root types.Hash) (*state.DB, error)
	// Registry verifies transaction signatures; nil disables checks.
	Registry *crypto.Registry
	// SupportsForks enables side chains and reorgs (PoW/PoA). When
	// false, a block whose parent is not the current head is rejected.
	SupportsForks bool
	// GenesisAlloc funds accounts at genesis.
	GenesisAlloc map[types.Address]uint64
	// OnInclude is called with the transactions of blocks that become
	// canonical, so the node can clear them from its pending pool. Pool
	// bookkeeping must key off canonicality, not block arrival: a
	// transaction that only ever appeared on a losing fork has to stay
	// pending. The slice is the chain's scratch, borrowed for the call:
	// the hook must neither keep it nor modify it.
	OnInclude func(included []*types.Transaction)
	// OnReorg is called with the transactions of blocks that left the
	// canonical chain and are not part of the new branch, so the node
	// can return them to its pending pool.
	OnReorg func(dropped []*types.Transaction)
	// OnCommit is called with the blocks (and their receipts, aligned
	// by index) that become canonical, in ascending height order — on a
	// reorg the new branch's blocks replace previously delivered
	// heights. The analytics indexer maintains its columnar index here.
	// The hook runs under the chain lock: it must be fast and must not
	// call back into the chain. Both slices are the chain's scratch,
	// borrowed for the call: the hook must neither keep them nor modify
	// them (the blocks and receipts they point to stay valid).
	OnCommit func(blocks []*types.Block, receipts [][]*types.Receipt)
	// Tracer is the cluster's lifecycle tracer (nil-safe). The chain
	// stamps StageOrder when a block it builds or accepts carries a
	// transaction, and StageExecute/StageStateCommit around that block's
	// one execution and state commit. StagePropose is the consensus
	// engines' (consensus.Context.Tracer).
	Tracer *trace.Tracer
}

// Meta is what Build takes from the proposer for a header. Time is the
// proposer's clock in unix nanoseconds, or the height where replicas
// must agree. GasLimit bounds the gas the block's transactions use (0 =
// unbounded).
type Meta struct {
	Proposer                   types.Address
	Difficulty, View, GasLimit uint64
	Time                       int64
}

// result is one execution of a transaction list on a parent's state.
type result struct {
	block    *types.Block // the block Build returned; nil for Append's own runs
	db       *state.DB
	root     types.Hash
	receipts []*types.Receipt // one per included transaction
	gasUsed  uint64
}

// entry is an accepted block; its header's StateRoot is the root its
// execution committed.
type entry struct {
	block     *types.Block
	totalDiff uint64
	receipts  []*types.Receipt
}

// Chain is one node's view of the blockchain. Safe for concurrent use.
type Chain struct {
	cfg Config

	mu        sync.RWMutex
	entries   map[types.Hash]*entry
	canonical []types.Hash // by height, canonical[0] = genesis
	head      *entry
	byTx      map[types.Hash]*types.Receipt
	headState *state.DB // Query's DB at the head, reopened after a head switch

	appended uint64 // every block ever accepted, including side chains

	// kept is the DB the last accepted block committed on, rebound at
	// keptRoot, where the next block on that root executes. Query and
	// StateAt never read it (a factory's singleton aside); a failed or
	// rejected execution drops it.
	kept     *state.DB
	keptRoot types.Hash

	// built is Build's outcome, held for an Append of that very block.
	built result

	// setHeadLocked's scratch, reused under mu from one head switch to
	// the next: the blocks that become canonical (newest first), their
	// transactions, and the blocks and receipts handed to OnCommit.
	// Hooks only borrow them (see Config.OnInclude and OnCommit).
	fresh    []*entry
	included []*types.Transaction
	blocks   []*types.Block
	receipts [][]*types.Receipt
}

// New creates a chain with a freshly executed genesis block.
func New(cfg Config) (*Chain, error) {
	db, err := cfg.StateFactory(types.ZeroHash)
	if err != nil {
		return nil, err
	}
	for addr, amount := range cfg.GenesisAlloc {
		db.SetBalance(addr, amount)
	}
	root, err := db.Commit()
	if err != nil {
		return nil, fmt.Errorf("ledger: genesis commit: %w", err)
	}
	genesis := &types.Block{Header: types.Header{Number: 0, StateRoot: root}}
	e := &entry{block: genesis}
	return &Chain{
		cfg:       cfg,
		entries:   map[types.Hash]*entry{genesis.Hash(): e},
		canonical: []types.Hash{genesis.Hash()},
		head:      e,
		byTx:      make(map[types.Hash]*types.Receipt),
		headState: db,
	}, nil
}

// Head returns the current canonical head block.
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.block
}

// Has reports whether the block is known (canonical or side chain).
func (c *Chain) Has(h types.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.entries[h]
	return ok
}

// verifyTxs checks signatures and corruption flags: cache hits for what
// the pool admitted, fanned out for the rest (preload, sync, replay).
func (c *Chain) verifyTxs(txs []*types.Transaction) error {
	if c.cfg.Registry == nil {
		return nil
	}
	if i := c.cfg.Registry.VerifyTxs(txs); i >= 0 {
		return fmt.Errorf("%w: bad signature on %s", ErrBadBlock, txs[i].Hash())
	}
	return nil
}

// stamp records stage s for every sampled transaction of txs.
func (c *Chain) stamp(txs []*types.Transaction, s trace.Stage) {
	if c.cfg.Tracer.Enabled() {
		for _, tx := range txs {
			c.cfg.Tracer.Stamp(tx.Hash(), s)
		}
	}
}

// execute runs txs as block number on the parent state, on the kept DB
// when it stands there, and commits; it drops any held Build outcome.
// Under a gas limit it includes txs in order until the next would push
// the gas used past it (geth's miner: gas consumed, not gas declared).
func (c *Chain) execute(parent *entry, txs []*types.Transaction, number, gasLimit uint64) (result, error) {
	c.built = result{}
	db := c.kept
	c.kept = nil
	if root := parent.block.Header.StateRoot; db == nil || c.keptRoot != root {
		var err error
		if db, err = c.cfg.StateFactory(root); err != nil {
			return result{}, err
		}
	}
	r := result{db: db}
	if c.cfg.Parallel != nil && gasLimit == 0 {
		r.receipts = c.cfg.Parallel.ExecuteBlock(c.cfg.Engine, db, txs, number)
	} else {
		r.receipts = types.NewReceipts(len(txs))
		var used uint64
		for i, tx := range txs {
			snap := db.Snapshot()
			c.cfg.Engine.ExecuteInto(db, tx, number, r.receipts[i])
			if used += r.receipts[i].GasUsed; gasLimit > 0 && used > gasLimit {
				db.Revert(snap)
				r.receipts = r.receipts[:i]
				break // block is full; keep FIFO order
			}
		}
	}
	txs = txs[:len(r.receipts)]
	for _, rc := range r.receipts {
		r.gasUsed += rc.GasUsed
	}
	c.stamp(txs, trace.StageExecute)
	var err error
	if r.root, err = db.Commit(); err != nil {
		return result{}, fmt.Errorf("ledger: state commit: %w", err)
	}
	c.stamp(txs, trace.StageStateCommit)
	return r, nil
}

// Build makes the next block on the head, the one way a block comes to
// be: it verifies txs, executes them once, fills the header's roots and
// gas used, and holds the outcome for an Append of the returned block.
// A seal in between changes the block's hash, not its roots; any other
// execution in between drops the outcome, and the Append executes.
func (c *Chain) Build(txs []*types.Transaction, m Meta) (*types.Block, error) {
	if err := c.verifyTxs(txs); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	parent := c.head
	number := parent.block.Number() + 1
	c.stamp(txs, trace.StageOrder)
	r, err := c.execute(parent, txs, number, m.GasLimit)
	if err != nil {
		return nil, err
	}
	txs = txs[:len(r.receipts):len(r.receipts)]
	r.block = &types.Block{Txs: txs, Header: types.Header{Number: number, ParentHash: parent.block.Hash(),
		Time: m.Time, Difficulty: m.Difficulty, Proposer: m.Proposer, View: m.View, GasLimit: m.GasLimit,
		StateRoot: r.root, TxRoot: merkle.TxRoot(txs), GasUsed: r.gasUsed}}
	c.built = r
	return r.block, nil
}

// Append validates, executes and stores a block, advancing the head if
// the block extends the heaviest chain. Duplicate blocks are ignored.
// The block Build returned commits Build's outcome. Every header must
// match its body and its execution: tx root, state root and gas.
func (c *Chain) Append(b *types.Block) error {
	c.mu.RLock()
	built := c.built.block == b // Build verified its transactions
	c.mu.RUnlock()
	if !built {
		if err := c.verifyTxs(b.Txs); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[b.Hash()]; dup {
		return nil
	}
	parent, ok := c.entries[b.Header.ParentHash]
	if !ok {
		return ErrUnknownParent
	}
	if !c.cfg.SupportsForks && b.Header.ParentHash != c.head.block.Hash() {
		return ErrNoForks
	}
	if b.Number() != parent.block.Number()+1 {
		return fmt.Errorf("%w: number %d after parent %d", ErrBadBlock, b.Number(), parent.block.Number())
	}
	if merkle.TxRoot(b.Txs) != b.Header.TxRoot {
		return fmt.Errorf("%w: tx root mismatch", ErrBadBlock)
	}

	r := c.built
	if r.block == b {
		c.built = result{}
	} else {
		c.stamp(b.Txs, trace.StageOrder)
		var err error
		if r, err = c.execute(parent, b.Txs, b.Number(), b.Header.GasLimit); err != nil {
			return err
		}
	}
	switch {
	case len(r.receipts) < len(b.Txs):
		return fmt.Errorf("%w: gas used past the limit %d", ErrBadBlock, b.Header.GasLimit)
	case r.root != b.Header.StateRoot:
		return fmt.Errorf("%w: state root mismatch (have %s, computed %s)",
			ErrBadBlock, b.Header.StateRoot.Short(), r.root.Short())
	case r.gasUsed != b.Header.GasUsed:
		return fmt.Errorf("%w: gas used %d, computed %d", ErrBadBlock, b.Header.GasUsed, r.gasUsed)
	}
	r.db.Rebind()
	c.kept, c.keptRoot = r.db, r.root

	e := &entry{block: b, totalDiff: parent.totalDiff + max(b.Header.Difficulty, 1), receipts: r.receipts}
	c.entries[b.Hash()] = e
	c.appended++

	if e.totalDiff > c.head.totalDiff {
		c.setHeadLocked(e)
	}
	return nil
}

// setHeadLocked switches the canonical chain to end at e.
func (c *Chain) setHeadLocked(e *entry) {
	c.head = e
	c.headState = nil // lazily reopened at the new root

	// Rebuild the canonical index from e back to the divergence point.
	cur := e
	fresh := c.fresh[:0]
	for {
		n := cur.block.Number()
		if uint64(len(c.canonical)) > n && c.canonical[n] == cur.block.Hash() {
			break
		}
		fresh = append(fresh, cur)
		if n == 0 {
			break
		}
		cur = c.entries[cur.block.Header.ParentHash]
	}
	c.fresh = fresh
	// Receipts on abandoned branch blocks must no longer resolve, and
	// their transactions go back to the pool unless the new branch also
	// includes them. A head that extends the old head abandons nothing.
	var dropped []*types.Transaction
	if len(fresh) > 0 {
		lowest := fresh[len(fresh)-1].block.Number()
		if abandoned := c.canonical[min(int(lowest), len(c.canonical)):]; len(abandoned) > 0 {
			inNew := make(map[types.Hash]bool)
			for _, en := range fresh {
				for _, tx := range en.block.Txs {
					inNew[tx.Hash()] = true
				}
			}
			for _, h := range abandoned {
				old := c.entries[h]
				for _, r := range old.receipts {
					delete(c.byTx, r.TxHash)
				}
				for _, tx := range old.block.Txs {
					if !inNew[tx.Hash()] {
						dropped = append(dropped, tx)
					}
				}
			}
		}
		c.canonical = c.canonical[:lowest]
	}
	included := c.included[:0]
	for i := len(fresh) - 1; i >= 0; i-- {
		en := fresh[i]
		c.canonical = append(c.canonical, en.block.Hash())
		included = append(included, en.block.Txs...)
		for _, r := range en.receipts {
			c.byTx[r.TxHash] = r
		}
	}
	c.included = included
	if len(included) > 0 && c.cfg.OnInclude != nil {
		c.cfg.OnInclude(included)
	}
	if len(dropped) > 0 && c.cfg.OnReorg != nil {
		c.cfg.OnReorg(dropped)
	}
	if len(fresh) > 0 && c.cfg.OnCommit != nil {
		blocks, receipts := c.blocks[:0], c.receipts[:0]
		for i := len(fresh) - 1; i >= 0; i-- {
			blocks = append(blocks, fresh[i].block)
			receipts = append(receipts, fresh[i].receipts)
		}
		c.blocks, c.receipts = blocks, receipts
		c.cfg.OnCommit(blocks, receipts)
	}
}

// Query runs a read-only contract method against the state at the
// canonical head, with the chain's engine. It holds the chain lock for
// the whole read: a StateFactory may hand every block the same DB (see
// Config.StateFactory), and Append executes blocks on it under the lock.
func (c *Chain) Query(contract, method string, args [][]byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.headState == nil {
		db, err := c.cfg.StateFactory(c.head.block.Header.StateRoot)
		if err != nil {
			return nil, err
		}
		c.headState = db
	}
	return c.cfg.Engine.Query(c.headState, contract, method, args)
}

// BalanceAt returns an account's balance as of the canonical block at
// the given height, holding the chain lock for the whole read as Query
// does. Platforms without state versioning return an error for non-head
// heights.
func (c *Chain) BalanceAt(addr types.Address, number uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	db, err := c.stateAtLocked(number)
	if err != nil {
		return 0, err
	}
	return db.GetBalance(addr), nil
}

// StateAt returns the state as of the canonical block at the given
// height. Platforms without state versioning return an error for
// non-head heights, and hand out the DB the chain executes blocks on:
// read it only while no block is appended.
func (c *Chain) StateAt(number uint64) (*state.DB, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stateAtLocked(number)
}

// stateAtLocked is StateAt for a caller that holds c.mu.
func (c *Chain) stateAtLocked(number uint64) (*state.DB, error) {
	if number >= uint64(len(c.canonical)) {
		return nil, fmt.Errorf("ledger: no block %d", number)
	}
	if head := c.head.block.Number(); !c.cfg.SupportsForks && number != head {
		return nil, fmt.Errorf("ledger: platform keeps no historical state (asked for block %d, head %d)", number, head)
	}
	return c.cfg.StateFactory(c.entries[c.canonical[number]].block.Header.StateRoot)
}

// GetBlock returns the canonical block at a height.
func (c *Chain) GetBlock(number uint64) (*types.Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if number >= uint64(len(c.canonical)) {
		return nil, false
	}
	return c.entries[c.canonical[number]].block, true
}

// BlocksFrom returns up to limit canonical blocks with height > h, in
// order — the paper's getLatestBlock(h) poll.
func (c *Chain) BlocksFrom(h uint64, limit int) []*types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*types.Block
	for n := h + 1; n < uint64(len(c.canonical)); n++ {
		out = append(out, c.entries[c.canonical[n]].block)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Receipt returns the receipt for a transaction on the canonical chain.
func (c *Chain) Receipt(txHash types.Hash) (*types.Receipt, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.byTx[txHash]
	return r, ok
}

// Height returns the canonical head height.
func (c *Chain) Height() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.block.Number()
}

// KnownBlocks returns the count of all non-genesis blocks this node has
// accepted, including abandoned forks; with Height it yields the paper's
// security metric (total generated vs on the main branch).
func (c *Chain) KnownBlocks() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.appended
}

// KnownHashes returns the hashes of every non-genesis block this node
// has accepted, canonical or not. The fork experiment unions these
// across nodes to count blocks generated on all branches.
func (c *Chain) KnownHashes() []types.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]types.Hash, 0, len(c.entries)-1)
	genesis := c.canonical[0]
	for h := range c.entries {
		if h != genesis {
			out = append(out, h)
		}
	}
	return out
}
