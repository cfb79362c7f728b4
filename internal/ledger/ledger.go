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
	"time"

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
	// Proposals under a block gas limit stay serial: inclusion is
	// decided per transaction in sequence order there.
	Parallel BlockExecutor
	// StateFactory opens a state database at the given root. Platforms
	// without state versioning (Hyperledger's bucket tree) may return a
	// process-wide singleton; they must also set SupportsForks=false.
	// A DB it returns may serve many blocks: the chain executes a block
	// on the DB its parent committed on, when it kept that (Chain.kept).
	StateFactory func(root types.Hash) (*state.DB, error)
	// Registry verifies transaction signatures; nil disables checks.
	Registry *crypto.Registry
	// GasLimit is the block gas limit (0 = unlimited), Ethereum-style.
	GasLimit uint64
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
	// stamps StagePropose when a candidate block includes a transaction,
	// StageOrder when an accepted block carries it, and
	// StageExecute/StageStateCommit around the accepted block's
	// execution and state commit.
	Tracer *trace.Tracer
}

type entry struct {
	block     *types.Block
	stateRoot types.Hash
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
	genesis := &types.Block{Header: types.Header{
		Number: 0, StateRoot: root, GasLimit: cfg.GasLimit,
	}}
	e := &entry{block: genesis, stateRoot: root}
	c := &Chain{
		cfg:       cfg,
		entries:   map[types.Hash]*entry{genesis.Hash(): e},
		canonical: []types.Hash{genesis.Hash()},
		head:      e,
		byTx:      make(map[types.Hash]*types.Receipt),
		headState: db,
	}
	return c, nil
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
func (c *Chain) verifyTxs(b *types.Block) error {
	if c.cfg.Registry == nil {
		return nil
	}
	if i := c.cfg.Registry.VerifyTxs(b.Txs); i >= 0 {
		return fmt.Errorf("%w: bad signature on %s", ErrBadBlock, b.Txs[i].Hash())
	}
	return nil
}

// execute runs the block's transactions on the parent state, on the
// kept DB when it stands there; Append keeps the DB if b is accepted.
func (c *Chain) execute(parent *entry, b *types.Block) (*state.DB, types.Hash, []*types.Receipt, error) {
	db := c.kept
	c.kept = nil
	if db == nil || c.keptRoot != parent.stateRoot {
		var err error
		if db, err = c.cfg.StateFactory(parent.stateRoot); err != nil {
			return nil, types.ZeroHash, nil, err
		}
	}
	var receipts []*types.Receipt
	if c.cfg.Parallel != nil {
		receipts = c.cfg.Parallel.ExecuteBlock(c.cfg.Engine, db, b.Txs, b.Number())
	} else {
		receipts = types.NewReceipts(len(b.Txs))
		for i, tx := range b.Txs {
			c.cfg.Engine.ExecuteInto(db, tx, b.Number(), receipts[i])
		}
	}
	if c.cfg.Tracer.Enabled() {
		for _, tx := range b.Txs {
			c.cfg.Tracer.Stamp(tx.Hash(), trace.StageExecute)
		}
	}
	root, err := db.Commit()
	if err != nil {
		return nil, types.ZeroHash, nil, fmt.Errorf("ledger: state commit: %w", err)
	}
	if c.cfg.Tracer.Enabled() {
		for _, tx := range b.Txs {
			c.cfg.Tracer.Stamp(tx.Hash(), trace.StageStateCommit)
		}
	}
	return db, root, receipts, nil
}

// Append validates, executes and stores a block, advancing the head if
// the block extends the heaviest chain. Duplicate blocks are ignored.
func (c *Chain) Append(b *types.Block) error {
	if err := c.verifyTxs(b); err != nil {
		return err
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
	// PBFT blocks carry no TxRoot; build the tx tree only to compare it.
	if !b.Header.TxRoot.IsZero() && merkle.TxRoot(b.Txs) != b.Header.TxRoot {
		return fmt.Errorf("%w: tx root mismatch", ErrBadBlock)
	}
	if c.cfg.Tracer.Enabled() {
		for _, tx := range b.Txs {
			c.cfg.Tracer.Stamp(tx.Hash(), trace.StageOrder)
		}
	}

	db, root, receipts, err := c.execute(parent, b)
	if err != nil {
		return err
	}
	if !b.Header.StateRoot.IsZero() && b.Header.StateRoot != root {
		return fmt.Errorf("%w: state root mismatch (have %s, computed %s)",
			ErrBadBlock, b.Header.StateRoot.Short(), root.Short())
	}
	db.Rebind()
	c.kept, c.keptRoot = db, root

	diff := b.Header.Difficulty
	if diff == 0 {
		diff = 1
	}
	e := &entry{block: b, stateRoot: root, totalDiff: parent.totalDiff + diff, receipts: receipts}
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

// ProposeBlock builds and executes a candidate block on the current
// head from the given transactions, including them in order until the
// block gas limit is reached (as geth's miner does: the limit applies to
// gas consumed, not to the transactions' declared gas allowances). The
// block, stamped now, has its roots filled; PoW still has to seal it.
func (c *Chain) ProposeBlock(txs []*types.Transaction, proposer types.Address, difficulty, view uint64, now time.Time) (*types.Block, error) {
	c.mu.RLock()
	parent := c.head
	c.mu.RUnlock()

	number := parent.block.Number() + 1
	db, err := c.cfg.StateFactory(parent.stateRoot)
	if err != nil {
		return nil, err
	}
	var (
		included []*types.Transaction
		gasUsed  uint64
	)
	if c.cfg.Parallel != nil && c.cfg.GasLimit == 0 {
		// No gas ceiling to enforce per transaction, so the whole list
		// is included and can execute on the parallel scheduler.
		for _, r := range c.cfg.Parallel.ExecuteBlock(c.cfg.Engine, db, txs, number) {
			gasUsed += r.GasUsed
		}
		included = txs
	} else {
		var r types.Receipt // a proposal keeps only the gas
		for _, tx := range txs {
			snap := db.Snapshot()
			c.cfg.Engine.ExecuteInto(db, tx, number, &r)
			if c.cfg.GasLimit > 0 && gasUsed+r.GasUsed > c.cfg.GasLimit {
				db.Revert(snap)
				break // block is full; keep FIFO order
			}
			gasUsed += r.GasUsed
			included = append(included, tx)
		}
	}
	root, err := db.Commit()
	if err != nil {
		return nil, fmt.Errorf("ledger: propose commit: %w", err)
	}
	// Speculative execution above is not the block's canonical execution,
	// so only the propose stage is stamped here; execute/state_commit are
	// stamped when the block is accepted through Append.
	if c.cfg.Tracer.Enabled() {
		for _, tx := range included {
			c.cfg.Tracer.Stamp(tx.Hash(), trace.StagePropose)
		}
	}
	b := &types.Block{
		Header: types.Header{
			Number:     number,
			ParentHash: parent.block.Hash(),
			Time:       now.UnixNano(),
			Difficulty: difficulty,
			Proposer:   proposer,
			View:       view,
			GasLimit:   c.cfg.GasLimit,
			StateRoot:  root,
			TxRoot:     merkle.TxRoot(included),
			GasUsed:    gasUsed,
		},
		Txs: included,
	}
	return b, nil
}

// Query runs a read-only contract method against the state at the
// canonical head, with the chain's engine. It holds the chain lock for
// the whole read: a StateFactory may hand every block the same DB (see
// Config.StateFactory), and Append executes blocks on it under the lock.
func (c *Chain) Query(contract, method string, args [][]byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.headState == nil {
		db, err := c.cfg.StateFactory(c.head.stateRoot)
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
	return c.cfg.StateFactory(c.entries[c.canonical[number]].stateRoot)
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
