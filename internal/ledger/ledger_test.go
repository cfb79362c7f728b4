package ledger

import (
	"errors"
	"testing"

	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/invariant"
	"blockbench/internal/kvstore"
	"blockbench/internal/merkle"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

func trieFactory() func(root types.Hash) (*state.DB, error) {
	store := kvstore.NewMem()
	return func(root types.Hash) (*state.DB, error) {
		b, err := state.NewTrieBackend(store, root, 0)
		if err != nil {
			return nil, err
		}
		return state.NewDB(b), nil
	}
}

func newTestChain(t *testing.T, forks bool) (*Chain, *crypto.Key) {
	t.Helper()
	key := crypto.DeterministicKey(1)
	eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb", "donothing")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Engine:        eng,
		StateFactory:  trieFactory(),
		SupportsForks: forks,
		GenesisAlloc:  map[types.Address]uint64{key.Address(): 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, key
}

// blockOn makes a block of txs on parent, which need not be c's head
// and need not be appended yet, with the roots and gas used that
// executing it on a fresh DB of c's factory yields: the block Build would
// return there. It leaves c's kept DB and held result alone.
func blockOn(t *testing.T, c *Chain, parent *types.Block, difficulty uint64, time int64, txs ...*types.Transaction) *types.Block {
	t.Helper()
	db, err := c.cfg.StateFactory(parent.Header.StateRoot)
	if err != nil {
		t.Fatal(err)
	}
	receipts := types.NewReceipts(len(txs))
	var gas uint64
	for i, tx := range txs {
		c.cfg.Engine.ExecuteInto(db, tx, parent.Number()+1, receipts[i])
		gas += receipts[i].GasUsed
	}
	root, err := db.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return &types.Block{Header: types.Header{Number: parent.Number() + 1, ParentHash: parent.Hash(),
		Difficulty: difficulty, Time: time, StateRoot: root, TxRoot: merkle.TxRoot(txs), GasUsed: gas}, Txs: txs}
}

// build is Build with the test's failure handling.
func build(t *testing.T, c *Chain, m Meta, txs ...*types.Transaction) *types.Block {
	t.Helper()
	b, err := c.Build(txs, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func signedTx(t *testing.T, key *crypto.Key, nonce uint64, method string, args ...[]byte) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{Nonce: nonce, Contract: "ycsb", Method: method,
		Args: args, GasLimit: 100_000}
	if err := crypto.SignTx(tx, key); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestGenesisState(t *testing.T) {
	c, key := newTestChain(t, true)
	if c.Height() != 0 {
		t.Fatal("genesis height != 0")
	}
	db, err := c.StateAt(c.Height())
	if err != nil {
		t.Fatal(err)
	}
	if db.GetBalance(key.Address()) != 1_000_000 {
		t.Fatal("genesis alloc missing")
	}
}

func TestBuildAndAppend(t *testing.T) {
	c, key := newTestChain(t, true)
	txs := []*types.Transaction{
		signedTx(t, key, 1, "write", []byte("k"), []byte("v")),
	}
	b := build(t, c, Meta{Proposer: key.Address(), Difficulty: 10, Time: 1}, txs...)
	if b.Header.StateRoot.IsZero() || b.Header.TxRoot.IsZero() || b.Header.GasUsed == 0 {
		t.Fatal("roots not filled")
	}
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
	if c.Height() != 1 {
		t.Fatalf("height = %d", c.Height())
	}
	r, ok := c.Receipt(txs[0].Hash())
	if !ok || !r.OK {
		t.Fatalf("receipt: %+v ok=%v", r, ok)
	}
	db, _ := c.StateAt(c.Height())
	if string(db.GetState("ycsb", []byte("k"))) != "v" {
		t.Fatal("state not applied")
	}
	// Duplicate append is a no-op.
	if err := c.Append(b); err != nil {
		t.Fatal("duplicate append errored")
	}
	if c.KnownBlocks() != 1 {
		t.Fatalf("known = %d", c.KnownBlocks())
	}
}

func TestAppendUnknownParent(t *testing.T) {
	c, _ := newTestChain(t, true)
	b := &types.Block{Header: types.Header{Number: 5, ParentHash: types.HashData([]byte("x"))}}
	if err := c.Append(b); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectBadSignature(t *testing.T) {
	key := crypto.DeterministicKey(1)
	reg := crypto.NewRegistry()
	reg.Add(key)
	eng, _ := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	c, err := New(Config{Engine: eng, StateFactory: trieFactory(),
		Registry: reg, SupportsForks: true})
	if err != nil {
		t.Fatal(err)
	}
	// Neither Build nor an Append of a block built elsewhere takes a bad
	// transaction.
	reject := func(what string, tx *types.Transaction) {
		t.Helper()
		if _, err := c.Build([]*types.Transaction{tx}, Meta{}); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("%s tx built into a block: %v", what, err)
		}
		if err := c.Append(blockOn(t, c, c.Head(), 1, 1, tx)); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("%s tx accepted: %v", what, err)
		}
	}
	// Unsigned tx.
	reject("unsigned", &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000})
	// Properly signed, then its signature damaged in flight. Hash() is
	// cached at signing, so editing a signed field in place would go
	// unseen; the damage is to a byte of Sig.
	tx2 := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
	if err := crypto.SignTx(tx2, key); err != nil {
		t.Fatal(err)
	}
	tx2.Sig[len(tx2.Sig)/2] ^= 0x01
	reject("corrupt", tx2)
}

func TestStateRootMismatchRejected(t *testing.T) {
	c, key := newTestChain(t, true)
	b := build(t, c, Meta{Difficulty: 1}, signedTx(t, key, 1, "write", []byte("a"), []byte("b")))
	b.Header.StateRoot = types.HashData([]byte("wrong"))
	if err := c.Append(b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad state root accepted: %v", err)
	}
}

// Every header's TxRoot is checked against its body: a wrong one and a
// missing one are both refused, on the held block and on a block built
// elsewhere.
func TestTxRootCheckedOnEveryBlock(t *testing.T) {
	for _, root := range []types.Hash{types.HashData([]byte("wrong")), types.ZeroHash} {
		c, key := newTestChain(t, true)
		tx := signedTx(t, key, 1, "write", []byte("a"), []byte("b"))
		other := blockOn(t, c, c.Head(), 1, 1, tx)
		for _, b := range []*types.Block{build(t, c, Meta{Difficulty: 1}, tx), other} {
			b.Header.TxRoot = root
			if err := c.Append(b); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("tx root %s accepted: %v", root.Short(), err)
			}
		}
	}
}

func TestForkChoiceHeaviestChain(t *testing.T) {
	c, key := newTestChain(t, true)
	// Chain A: one block of difficulty 10.
	a1 := build(t, c, Meta{Difficulty: 10, Time: 1}, signedTx(t, key, 1, "write", []byte("k"), []byte("A")))
	if err := c.Append(a1); err != nil {
		t.Fatal(err)
	}
	headA := c.Head().Hash()

	// Chain B: two blocks of difficulty 10 each, built on genesis.
	genesis, _ := c.GetBlock(0)
	b1 := blockOn(t, c, genesis, 10, 12345)
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	// Same total difficulty: head must not move (first-seen wins).
	if c.Head().Hash() != headA {
		t.Fatal("head moved on equal difficulty")
	}
	b2 := blockOn(t, c, b1, 20, 67890)
	if err := c.Append(b2); err != nil {
		t.Fatal(err)
	}
	if c.Head().Hash() != b2.Hash() {
		t.Fatal("reorg to heavier chain did not happen")
	}
	if c.Height() != 2 {
		t.Fatalf("height = %d", c.Height())
	}
	// State must reflect branch B (no write of "k").
	db, _ := c.StateAt(c.Height())
	if db.GetState("ycsb", []byte("k")) != nil {
		t.Fatal("state still from abandoned branch")
	}
	// The tx from branch A is no longer committed.
	if _, ok := c.Receipt(a1.Txs[0].Hash()); ok {
		t.Fatal("abandoned branch receipt still resolves")
	}
	// Known blocks counts both branches.
	if c.KnownBlocks() != 3 {
		t.Fatalf("known = %d, want 3", c.KnownBlocks())
	}
}

func TestNoForksPlatformRejectsSideChain(t *testing.T) {
	c, _ := newTestChain(t, false)
	if err := c.Append(build(t, c, Meta{})); err != nil {
		t.Fatal(err)
	}
	// A second block on genesis must be refused.
	genesis, _ := c.GetBlock(0)
	side := blockOn(t, c, genesis, 0, 1)
	if err := c.Append(side); !errors.Is(err, ErrNoForks) {
		t.Fatalf("side chain accepted: %v", err)
	}
}

func TestBlocksFromPolling(t *testing.T) {
	c, key := newTestChain(t, true)
	for i := 0; i < 5; i++ {
		b := build(t, c, Meta{Difficulty: 1}, signedTx(t, key, uint64(i), "write", []byte{byte(i)}, []byte("v")))
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	got := c.BlocksFrom(2, 0)
	if len(got) != 3 {
		t.Fatalf("BlocksFrom(2) = %d blocks, want 3", len(got))
	}
	if got[0].Number() != 3 {
		t.Fatal("wrong first block")
	}
	if limited := c.BlocksFrom(0, 2); len(limited) != 2 {
		t.Fatal("limit ignored")
	}
}

func TestStateAtHistoricalHeight(t *testing.T) {
	c, key := newTestChain(t, true)
	for i := 1; i <= 3; i++ {
		b := build(t, c, Meta{Difficulty: 1}, signedTx(t, key, uint64(i), "write", []byte("k"), []byte{byte(i)}))
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	db, err := c.StateAt(2)
	if err != nil {
		t.Fatal(err)
	}
	v := db.GetState("ycsb", []byte("k"))
	if len(v) != 1 || v[0] != 2 {
		t.Fatalf("historical state = %v", v)
	}
}

func TestFailedTxRevertedButIncluded(t *testing.T) {
	c, key := newTestChain(t, true)
	good := signedTx(t, key, 1, "write", []byte("k"), []byte("v"))
	bad := signedTx(t, key, 2, "read", []byte("missing")) // reverts
	if err := c.Append(build(t, c, Meta{Difficulty: 1}, good, bad)); err != nil {
		t.Fatal(err)
	}
	r, ok := c.Receipt(bad.Hash())
	if !ok {
		t.Fatal("failed tx has no receipt")
	}
	if r.OK {
		t.Fatal("reverting tx reported OK")
	}
	if r2, _ := c.Receipt(good.Hash()); !r2.OK {
		t.Fatal("good tx failed")
	}
}

// TestBuildRespectsGasLimit: Build includes transactions in order until
// the next would push the gas used past the header's limit, and an
// Append of a block built elsewhere that crosses its own limit fails.
func TestBuildRespectsGasLimit(t *testing.T) {
	key := crypto.DeterministicKey(1)
	eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Engine: eng, StateFactory: trieFactory(), SupportsForks: true})
	if err != nil {
		t.Fatal(err)
	}
	var txs []*types.Transaction
	for i := 0; i < 20; i++ {
		tx := &types.Transaction{Nonce: uint64(i), Contract: "ycsb", Method: "write",
			Args: [][]byte{{byte(i)}, []byte("v")}, GasLimit: 10_000_000}
		if err := crypto.SignTx(tx, key); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	// Each YCSB write uses ~21k intrinsic + storage gas; a 100k block
	// fits about 4 of them regardless of the txs' declared allowances.
	b := build(t, c, Meta{Difficulty: 1, GasLimit: 100_000}, txs...)
	if len(b.Txs) == 0 || len(b.Txs) >= 20 {
		t.Fatalf("included %d txs, want a gas-bounded subset", len(b.Txs))
	}
	if b.Header.GasUsed > 100_000 || b.Header.GasLimit != 100_000 {
		t.Fatalf("gas used %d under header limit %d, want at most 100000", b.Header.GasUsed, b.Header.GasLimit)
	}
	// FIFO: the included txs are the first ones offered.
	for i, tx := range b.Txs {
		if tx.Nonce != uint64(i) {
			t.Fatal("inclusion not FIFO")
		}
	}
	// A block over its own limit is refused; the built one is appended.
	over := blockOn(t, c, c.Head(), 1, 1, txs[:len(b.Txs)+1]...)
	over.Header.GasLimit = 100_000
	if err := c.Append(over); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("block over its gas limit accepted: %v", err)
	}
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
}

// testEngine counts the transactions it executes. When skew is set, the
// transaction with that hash also writes one value no other engine does.
type testEngine struct {
	exec.Engine
	runs int
	skew types.Hash
}

func (e *testEngine) ExecuteInto(db *state.DB, tx *types.Transaction, blockNum uint64, r *types.Receipt) {
	e.runs++
	e.Engine.ExecuteInto(db, tx, blockNum, r)
	if tx.Hash() == e.skew {
		db.SetState("ycsb", []byte("skew"), []byte("x"))
	}
}

// chainWith is newTestChain's forking chain over the given engine.
func chainWith(t *testing.T, eng exec.Engine, key *crypto.Key) *Chain {
	t.Helper()
	c, err := New(Config{Engine: eng, StateFactory: trieFactory(), SupportsForks: true,
		GenesisAlloc: map[types.Address]uint64{key.Address(): 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestProposerExecutesOnce: a PoA-style proposal, built and then
// appended by its proposer, executes each transaction once.
func TestProposerExecutesOnce(t *testing.T) {
	key := crypto.DeterministicKey(1)
	inner, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	if err != nil {
		t.Fatal(err)
	}
	eng := &testEngine{Engine: inner}
	c := chainWith(t, eng, key)
	var txs []*types.Transaction
	for i := 0; i < 5; i++ {
		txs = append(txs, signedTx(t, key, uint64(i), "write", []byte{byte(i)}, []byte("v")))
	}
	b := build(t, c, Meta{Proposer: key.Address(), Difficulty: 1, View: 3, Time: 1}, txs...)
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
	if eng.runs != len(txs) {
		t.Fatalf("the proposer executed %d transactions for a block of %d", eng.runs, len(txs))
	}
}

// chainPair is two chains as the invariant checker's ChainView.
type chainPair [2]*Chain

func (p chainPair) Size() int               { return len(p) }
func (p chainPair) Down(int) bool           { return false }
func (p chainPair) Restarts(int) uint64     { return 0 }
func (p chainPair) ShardOf(int) int         { return 0 }
func (p chainPair) NodeHeight(i int) uint64 { return p[i].Height() }
func (p chainPair) BlockHash(i int, h uint64) (types.Hash, bool) {
	b, ok := p[i].GetBlock(h)
	if !ok {
		return types.Hash{}, false
	}
	return b.Hash(), true
}

// TestDivergentReplicaCaught: two replicas build the same batch with the
// same meta, one of them on an engine that writes one value differently
// for one transaction. Their blocks carry the same transactions but
// commit to different states, so they hash differently, and the
// agreement check records it.
func TestDivergentReplicaCaught(t *testing.T) {
	key := crypto.DeterministicKey(1)
	txs := []*types.Transaction{
		signedTx(t, key, 1, "write", []byte("a"), []byte("1")),
		signedTx(t, key, 2, "write", []byte("b"), []byte("2")),
	}
	var pair chainPair
	for i := range pair {
		inner, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
		if err != nil {
			t.Fatal(err)
		}
		eng := &testEngine{Engine: inner}
		if i == 1 {
			eng.skew = txs[1].Hash()
		}
		pair[i] = chainWith(t, eng, key)
		if err := pair[i].Append(build(t, pair[i], Meta{View: 4, Time: 1}, txs...)); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := pair[0].GetBlock(1)
	b, _ := pair[1].GetBlock(1)
	if a.Hash() == b.Hash() {
		t.Fatal("replicas with different states agree on block 1")
	}
	check := invariant.New()
	check.CheckAgreement(pair, 0)
	if v := check.Violations(); len(v) != 1 {
		t.Fatalf("agreement check recorded %q, want one violation", v)
	}
}
