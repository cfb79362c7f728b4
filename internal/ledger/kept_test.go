package ledger

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"blockbench/internal/bmt"
	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// countingStore counts the point reads that reach the store.
type countingStore struct {
	kvstore.Store
	gets int
}

func (s *countingStore) Get(key []byte) ([]byte, bool, error) {
	s.gets++
	return s.Store.Get(key)
}

// keptFactories are the two trie organisations a chain keeps a DB over:
// Parity's, with no node cache, and the geth lineage's shared node cache
// and flat layer.
var keptFactories = []struct {
	name string
	open func(store kvstore.Store) func(types.Hash) (*state.DB, error)
}{
	{"nocache", func(store kvstore.Store) func(types.Hash) (*state.DB, error) {
		return func(root types.Hash) (*state.DB, error) {
			b, err := state.NewTrieBackend(store, root, 0)
			if err != nil {
				return nil, err
			}
			return state.NewDB(b), nil
		}
	}},
	{"shared", func(store kvstore.Store) func(types.Hash) (*state.DB, error) {
		cache, flat := state.NewSharedCache(64), state.NewFlatState(store, 64)
		return func(root types.Hash) (*state.DB, error) {
			b, err := state.NewTrieBackendShared(store, root, cache, flat)
			if err != nil {
				return nil, err
			}
			return state.NewDB(b), nil
		}
	}},
}

// keptTwins is a chain that executes on its kept DB and a twin, on a
// store of its own, that opens a fresh DB for every block, as chains did
// before they kept one. A third chain, on a third store, fills in the
// blocks' roots (blockOn), so neither twin has seen a block before its
// Append.
type keptTwins struct {
	t                    *testing.T
	kept, fresh, builder *Chain
	key                  *crypto.Key
	nonce                uint64
}

func newKeptTwins(t *testing.T, forks bool, open func(kvstore.Store) func(types.Hash) (*state.DB, error)) *keptTwins {
	t.Helper()
	key := crypto.DeterministicKey(1)
	chain := func() *Chain {
		eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{Engine: eng, StateFactory: open(kvstore.NewMem()), SupportsForks: forks,
			GenesisAlloc: map[types.Address]uint64{key.Address(): 1_000_000}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return &keptTwins{t: t, kept: chain(), fresh: chain(), builder: chain(), key: key}
}

// block builds a block of ycsb writes on parent; the reads make the
// receipts depend on the parent's state.
func (w *keptTwins) block(parent *types.Block, difficulty uint64, tag string) *types.Block {
	w.t.Helper()
	return blockOn(w.t, w.builder, parent, difficulty, int64(w.nonce), w.txs(tag)...)
}

// txs signs three ycsb writes of tag, each followed by a read of its key.
func (w *keptTwins) txs(tag string) []*types.Transaction {
	w.t.Helper()
	var txs []*types.Transaction
	for i := 0; i < 3; i++ {
		w.nonce++
		k := []byte(fmt.Sprintf("k%d", (int(w.nonce)+i)%5))
		txs = append(txs, signedTx(w.t, w.key, w.nonce, "write", k, []byte(tag)))
		w.nonce++
		txs = append(txs, signedTx(w.t, w.key, w.nonce, "read", k))
	}
	return txs
}

// append hands b to both chains and fails unless they agree on the
// outcome, the computed root, the receipts and the head.
func (w *keptTwins) append(b *types.Block) error {
	w.t.Helper()
	errK, errF := w.kept.Append(b), w.fresh.Append(b)
	w.fresh.kept = nil
	if (errK == nil) != (errF == nil) || !errors.Is(errK, ErrBadBlock) && errK != nil {
		w.t.Fatalf("block %d: kept chain says %v, fresh chain %v", b.Number(), errK, errF)
	}
	if errK != nil {
		return errK
	}
	ek, ef := w.kept.entries[b.Hash()], w.fresh.entries[b.Hash()]
	if !reflect.DeepEqual(ek.receipts, ef.receipts) {
		w.t.Fatalf("block %d: receipts differ on the kept DB", b.Number())
	}
	if w.kept.Head().Hash() != w.fresh.Head().Hash() {
		w.t.Fatalf("block %d: heads differ", b.Number())
	}
	return nil
}

func (w *keptTwins) mustAppend(b *types.Block) {
	w.t.Helper()
	if err := w.append(b); err != nil {
		w.t.Fatal(err)
	}
}

// TestKeptDBMatchesFreshAcrossForkSwitch runs a forking chain through a
// side branch, a reorg onto it and growth past it: the kept DB is reused
// along a branch, replaced on every other parent, and every root and
// receipt matches a chain that opens a fresh DB per block.
func TestKeptDBMatchesFreshAcrossForkSwitch(t *testing.T) {
	for _, f := range keptFactories {
		t.Run(f.name, func(t *testing.T) {
			w := newKeptTwins(t, true, f.open)
			genesis := w.kept.Head()
			a1 := w.block(genesis, 1, "a1")
			w.mustAppend(a1)
			db := w.kept.kept
			a2 := w.block(a1, 1, "a2")
			w.mustAppend(a2)
			if w.kept.kept != db {
				t.Fatal("the block on the committed root did not run on the kept DB")
			}
			b1 := w.block(genesis, 1, "b1") // a side chain: the kept DB stands elsewhere
			w.mustAppend(b1)
			a3 := w.block(a2, 1, "a3")
			w.mustAppend(a3)
			b2 := w.block(b1, 5, "b2") // heavier: the head switches to b
			w.mustAppend(b2)
			if w.kept.Head().Hash() != b2.Hash() {
				t.Fatal("no reorg onto the heavier branch")
			}
			db = w.kept.kept
			b3 := w.block(b2, 1, "b3")
			w.mustAppend(b3)
			if w.kept.kept != db {
				t.Fatal("the block after the reorg did not run on the kept DB")
			}
			head, err := w.kept.StateAt(w.kept.Height())
			if err != nil {
				t.Fatal(err)
			}
			if head == w.kept.kept {
				t.Fatal("StateAt returned the kept DB")
			}
		})
	}
}

// TestKeptDBDroppedOnRejectedBlock rejects a block whose header carries
// the wrong state root — its execution committed on the kept DB — and
// accepts a valid sibling, which must execute on a DB at the parent's
// root, not on the rejected block's.
func TestKeptDBDroppedOnRejectedBlock(t *testing.T) {
	for _, f := range keptFactories {
		t.Run(f.name, func(t *testing.T) {
			w := newKeptTwins(t, false, f.open)
			a1 := w.block(w.kept.Head(), 1, "a1")
			w.mustAppend(a1)
			bad := w.block(a1, 1, "bad")
			bad.Header.StateRoot = types.HashData([]byte("wrong"))
			if err := w.append(bad); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("block with a wrong state root: %v", err)
			}
			if w.kept.kept != nil {
				t.Fatal("the chain kept the DB a rejected block committed on")
			}
			a2 := w.block(a1, 1, "a2")
			w.mustAppend(a2)
			w.mustAppend(w.block(a2, 1, "a3"))
		})
	}
}

// TestKeptTrieHoldsNoResolvedNode runs blocks on a trie without a node
// cache, which keeps every node it resolves while it lives: between
// blocks the kept DB must hold none, so a read through it costs as many
// store reads as through a DB freshly opened at the same root.
func TestKeptTrieHoldsNoResolvedNode(t *testing.T) {
	store := &countingStore{Store: kvstore.NewMem()}
	w := &keptTwins{t: t, key: crypto.DeterministicKey(1)}
	eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Engine: eng, StateFactory: keptFactories[0].open(store), SupportsForks: true,
		GenesisAlloc: map[types.Address]uint64{w.key.Address(): 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Append(build(t, c, Meta{Difficulty: 1}, w.txs(fmt.Sprint(i))...)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(db *state.DB) int {
		before := store.gets
		db.GetBalance(w.key.Address())
		return store.gets - before
	}
	kept := read(c.kept)
	fresh, err := c.cfg.StateFactory(c.keptRoot)
	if err != nil {
		t.Fatal(err)
	}
	if want := read(fresh); kept != want || kept == 0 {
		t.Fatalf("a read through the kept DB took %d store reads, through a fresh one %d", kept, want)
	}
}

// TestKeptDBConcurrentReads reads the head state, a historical state and
// receipts while blocks are appended on the kept DB (run under -race).
func TestKeptDBConcurrentReads(t *testing.T) {
	w := newKeptTwins(t, true, keptFactories[1].open)
	c := w.kept
	blocks := make([]*types.Block, 40)
	parent := c.Head()
	for i := range blocks {
		blocks[i] = w.block(parent, 1, fmt.Sprint(i))
		parent = blocks[i]
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if db, err := c.StateAt(c.Height()); err == nil {
				db.GetBalance(w.key.Address())
			}
			if h := c.Height(); h > 0 {
				if db, err := c.StateAt(h - 1); err == nil {
					db.GetState("ycsb", []byte("k1"))
				}
				if b, ok := c.GetBlock(h); ok {
					c.Receipt(b.Txs[0].Hash())
				}
			}
		}
	}()
	for _, b := range blocks {
		if err := c.Append(b); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	for _, b := range blocks {
		if _, ok := c.Receipt(b.Txs[len(b.Txs)-1].Hash()); !ok {
			t.Fatalf("block %d: no receipt", b.Number())
		}
	}
}

// TestQueryDuringAppend reads through Query and BalanceAt while another
// goroutine builds and appends blocks, on a bucket-tree chain whose
// factory hands every block the same DB, as Hyperledger's does: a read
// that ran outside the chain lock would snapshot, read and revert that
// DB mid-block (run under -race).
func TestQueryDuringAppend(t *testing.T) {
	key := crypto.DeterministicKey(1)
	eng, err := exec.NewNativeEngine("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	b, err := state.NewBucketBackend(kvstore.NewMem(), bmt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := state.NewDB(b)
	c, err := New(Config{Engine: eng, StateFactory: func(types.Hash) (*state.DB, error) { return db, nil },
		GenesisAlloc: map[types.Address]uint64{key.Address(): 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]*types.Transaction, 40)
	nonce := uint64(0)
	for i := range batches {
		for j := 0; j < 4; j++ {
			nonce++
			batches[i] = append(batches[i], signedTx(t, key, nonce, "write", []byte(fmt.Sprint("k", j)), []byte(fmt.Sprint(i))))
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, txs := range batches {
			b, err := c.Build(txs, Meta{Time: int64(i)})
			if err == nil {
				err = c.Append(b)
			}
			if err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
	}()
	reads := 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		if bal, err := c.BalanceAt(key.Address(), c.Height()); err == nil && bal != 1_000_000 {
			t.Errorf("balance read %d mid-append, want 1000000", bal)
			break
		}
		if h := c.Height(); h > 0 {
			if v, err := c.Query("ycsb", "read", [][]byte{[]byte("k0")}); err != nil || len(v) == 0 {
				t.Errorf("query at height %d: %q, %v", h, v, err)
				break
			}
		}
	}
	wg.Wait()
	if v, err := c.Query("ycsb", "read", [][]byte{[]byte("k3")}); err != nil || string(v) != fmt.Sprint(len(batches)-1) {
		t.Fatalf("head query after %d reads: %q, %v; want %q", reads, v, err, fmt.Sprint(len(batches)-1))
	}
}

// TestBuildDuringAppend builds a block PoW-style (Build, a pause for
// the seal, Append) while another goroutine appends a competing sibling:
// between the Build and the Append on even rounds, racing the Append on
// odd ones. Whichever lands first, both blocks' roots and receipts match
// a chain that opens a fresh DB for every block (run under -race).
func TestBuildDuringAppend(t *testing.T) {
	for _, f := range keptFactories {
		t.Run(f.name, func(t *testing.T) {
			w := newKeptTwins(t, true, f.open)
			c := w.kept
			for round := 0; round < 16; round++ {
				sibling := w.block(c.Head(), 1, fmt.Sprint("s", round))
				txs := w.txs(fmt.Sprint("b", round))
				built, sealed := make(chan struct{}), make(chan struct{})
				var b *types.Block
				var errB, errS error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					b, errB = c.Build(txs, Meta{Difficulty: 2, Time: int64(round)})
					close(built)
					if round%2 == 0 {
						<-sealed
					}
					if errB == nil {
						errB = c.Append(b)
					}
				}()
				go func() {
					defer wg.Done()
					<-built
					errS = c.Append(sibling)
					close(sealed)
				}()
				wg.Wait()
				if errB != nil || errS != nil {
					t.Fatalf("round %d: built block %v, sibling %v", round, errB, errS)
				}
				if err := w.builder.Append(b); err != nil { // the next sibling's parent
					t.Fatal(err)
				}
				for _, x := range []*types.Block{sibling, b} {
					if err := w.fresh.Append(x); err != nil {
						t.Fatalf("round %d: fresh chain: %v", round, err)
					}
					w.fresh.kept = nil
					ek, ef := c.entries[x.Hash()], w.fresh.entries[x.Hash()]
					if !reflect.DeepEqual(ek.receipts, ef.receipts) {
						t.Fatalf("round %d: block %s differs from the fresh chain's", round, x.Hash().Short())
					}
				}
				if c.Head().Hash() != b.Hash() || w.fresh.Head().Hash() != b.Hash() {
					t.Fatalf("round %d: the heavier built block is not the head", round)
				}
			}
		})
	}
}
