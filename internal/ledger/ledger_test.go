package ledger

import (
	"errors"
	"testing"
	"time"

	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
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
		GasLimit:      10_000_000,
		SupportsForks: forks,
		GenesisAlloc:  map[types.Address]uint64{key.Address(): 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, key
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

func TestProposeAndAppend(t *testing.T) {
	c, key := newTestChain(t, true)
	txs := []*types.Transaction{
		signedTx(t, key, 1, "write", []byte("k"), []byte("v")),
	}
	b, err := c.ProposeBlock(txs, key.Address(), 10, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if b.Header.StateRoot.IsZero() || b.Header.TxRoot.IsZero() {
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
	// Unsigned tx.
	tx := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
	b, err := c.ProposeBlock([]*types.Transaction{tx}, key.Address(), 1, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("unsigned tx accepted: %v", err)
	}
	// Properly signed, then its signature damaged in flight. Hash() is
	// cached at signing, so editing a signed field in place would go
	// unseen; the damage is to a byte of Sig.
	tx2 := &types.Transaction{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("k"), []byte("v")}, GasLimit: 100_000}
	if err := crypto.SignTx(tx2, key); err != nil {
		t.Fatal(err)
	}
	tx2.Sig[len(tx2.Sig)/2] ^= 0x01
	b2, err := c.ProposeBlock([]*types.Transaction{tx2}, key.Address(), 1, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b2); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("corrupt tx accepted: %v", err)
	}
}

func TestStateRootMismatchRejected(t *testing.T) {
	c, key := newTestChain(t, true)
	b, err := c.ProposeBlock([]*types.Transaction{
		signedTx(t, key, 1, "write", []byte("a"), []byte("b")),
	}, key.Address(), 1, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	b.Header.StateRoot = types.HashData([]byte("wrong"))
	if err := c.Append(b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad state root accepted: %v", err)
	}
}

// A header that carries a TxRoot (Raft, PoW) is checked against the
// body; one that carries none (PBFT) is accepted without the check.
func TestTxRootCheckedOnlyWhenCarried(t *testing.T) {
	propose := func(c *Chain, key *crypto.Key) *types.Block {
		b, err := c.ProposeBlock([]*types.Transaction{
			signedTx(t, key, 1, "write", []byte("a"), []byte("b")),
		}, key.Address(), 1, 0, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	c, key := newTestChain(t, true)
	b := propose(c, key)
	b.Header.TxRoot = types.HashData([]byte("wrong"))
	if err := c.Append(b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad tx root accepted: %v", err)
	}
	c, key = newTestChain(t, true)
	b = propose(c, key)
	b.Header.TxRoot = types.ZeroHash
	if err := c.Append(b); err != nil {
		t.Fatalf("block without tx root rejected: %v", err)
	}
}

func TestForkChoiceHeaviestChain(t *testing.T) {
	c, key := newTestChain(t, true)
	// Chain A: one block of difficulty 10.
	a1, err := c.ProposeBlock([]*types.Transaction{
		signedTx(t, key, 1, "write", []byte("k"), []byte("A")),
	}, key.Address(), 10, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(a1); err != nil {
		t.Fatal(err)
	}
	headA := c.Head().Hash()

	// Chain B: two blocks of difficulty 10 each, built on genesis.
	genesis, _ := c.GetBlock(0)
	b1 := &types.Block{Header: types.Header{
		Number: 1, ParentHash: genesis.Hash(), Difficulty: 10, Time: 12345,
	}}
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	// Same total difficulty: head must not move (first-seen wins).
	if c.Head().Hash() != headA {
		t.Fatal("head moved on equal difficulty")
	}
	b2, err := buildOn(c, b1, 20)
	if err != nil {
		t.Fatal(err)
	}
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

// buildOn manually builds an empty block on a given parent (bypassing
// head selection), for fork tests.
func buildOn(c *Chain, parent *types.Block, difficulty uint64) (*types.Block, error) {
	db, err := c.cfg.StateFactory(c.entries[parent.Hash()].stateRoot)
	if err != nil {
		return nil, err
	}
	root, err := db.Commit()
	if err != nil {
		return nil, err
	}
	return &types.Block{Header: types.Header{
		Number:     parent.Number() + 1,
		ParentHash: parent.Hash(),
		Difficulty: difficulty,
		StateRoot:  root,
		Time:       67890,
	}}, nil
}

func TestNoForksPlatformRejectsSideChain(t *testing.T) {
	c, key := newTestChain(t, false)
	b1, err := c.ProposeBlock(nil, key.Address(), 0, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	// A second block on genesis must be refused.
	genesis, _ := c.GetBlock(0)
	side := &types.Block{Header: types.Header{
		Number: 1, ParentHash: genesis.Hash(), Time: 1,
	}}
	if err := c.Append(side); !errors.Is(err, ErrNoForks) {
		t.Fatalf("side chain accepted: %v", err)
	}
}

func TestBlocksFromPolling(t *testing.T) {
	c, key := newTestChain(t, true)
	for i := 0; i < 5; i++ {
		b, err := c.ProposeBlock([]*types.Transaction{
			signedTx(t, key, uint64(i), "write", []byte{byte(i)}, []byte("v")),
		}, key.Address(), 1, 0, time.Now())
		if err != nil {
			t.Fatal(err)
		}
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
		b, err := c.ProposeBlock([]*types.Transaction{
			signedTx(t, key, uint64(i), "write", []byte("k"), []byte{byte(i)}),
		}, key.Address(), 1, 0, time.Now())
		if err != nil {
			t.Fatal(err)
		}
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
	b, err := c.ProposeBlock([]*types.Transaction{good, bad}, key.Address(), 1, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b); err != nil {
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

func TestProposeBlockRespectsGasLimit(t *testing.T) {
	key := crypto.DeterministicKey(1)
	eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	if err != nil {
		t.Fatal(err)
	}
	// Each YCSB write uses ~21k intrinsic + storage gas; a 100k block
	// fits about 4 of them regardless of the txs' declared allowances.
	c, err := New(Config{
		Engine:        eng,
		StateFactory:  trieFactory(),
		GasLimit:      100_000,
		SupportsForks: true,
	})
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
	b, err := c.ProposeBlock(txs, key.Address(), 1, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Txs) == 0 || len(b.Txs) >= 20 {
		t.Fatalf("included %d txs, want a gas-bounded subset", len(b.Txs))
	}
	if b.Header.GasUsed > 100_000 {
		t.Fatalf("gas used %d exceeds block limit", b.Header.GasUsed)
	}
	// FIFO: the included txs are the first ones offered.
	for i, tx := range b.Txs {
		if tx.Nonce != uint64(i) {
			t.Fatal("inclusion not FIFO")
		}
	}
	// The proposed block is valid and appendable.
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
}
