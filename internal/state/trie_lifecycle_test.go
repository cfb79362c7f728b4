package state

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// ioKey is the IOHeavy contract's tuple key derivation (20-byte keys).
func ioKey(k uint64) []byte {
	key := make([]byte, 20)
	binary.LittleEndian.PutUint64(key[0:], k)
	binary.LittleEndian.PutUint64(key[8:], k*2654435761)
	binary.LittleEndian.PutUint64(key[12:], k*2654435761)
	return key
}

// ioBlock executes one IOHeavy write transaction (n tuples from seed) as
// its own block on the geth-lineage state organisation — a fresh
// backend at the parent root, sharing the node's cache and flat layer —
// and returns the new root.
func ioBlock(t testing.TB, store kvstore.Store, cache *SharedCache, flat *FlatState, parent types.Hash, seed, n uint64) types.Hash {
	b, err := NewTrieBackendShared(store, parent, cache, flat)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(b)
	val := make([]byte, 100)
	for j := uint64(0); j < n; j++ {
		binary.LittleEndian.PutUint64(val, j)
		db.SetState("ioheavy", ioKey(seed+j), val)
	}
	root, err := db.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func openLSM(t testing.TB) *kvstore.LSM {
	store, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestGoldenRootIOHeavyBlocks pins the state root of 2000 IOHeavy tuples
// written as 200 blocks of 10 over an LSM, captured on the commit before
// trie nodes carried their hash and the node cache held decoded nodes.
func TestGoldenRootIOHeavyBlocks(t *testing.T) {
	const want = "0x5b1ca57811dbefd09f319c33fecc82ebb612bacb298d58ef0fabc02877841497"
	store := openLSM(t)
	cache, flat := NewSharedCache(256), NewFlatState(store, 256)
	var root types.Hash
	for blk := uint64(0); blk < 200; blk++ {
		root = ioBlock(t, store, cache, flat, root, blk*10, 10)
	}
	if root.Hex() != want {
		t.Fatalf("root %s, want %s", root.Hex(), want)
	}
	// Everything must be reachable from the store alone.
	cold, err := NewTrieBackend(store, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		v, err := cold.Get(append([]byte("c:ioheavy:"), ioKey(k)...))
		if err != nil || len(v) != 100 || binary.LittleEndian.Uint64(v) != k%10 {
			t.Fatalf("tuple %d = %x, %v", k, v, err)
		}
	}
}

// TestSharedCacheConcurrentVersions: one writer chain commits 200 blocks
// through a 64-entry SharedCache — small enough that nodes are evicted
// and decoded again all the time — while four readers open tries at the
// roots it publishes and read through the same cache. Published nodes
// are shared without a lock, so under -race this fails if any trie ever
// writes to a node another can see; without it, it still checks every
// version reads its own values. Over the LSM a published branch keeps
// its own record, in a memtable chunk that later puts append to and that
// a flush (every few blocks at 16 KiB) drops.
func TestSharedCacheConcurrentVersions(t *testing.T) {
	t.Run("mem", func(t *testing.T) { sharedCacheConcurrentVersions(t, kvstore.NewMem()) })
	t.Run("lsm", func(t *testing.T) {
		store, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{MemTableBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sharedCacheConcurrentVersions(t, store)
	})
}

func sharedCacheConcurrentVersions(t *testing.T, store kvstore.Store) {
	const blocks, perBlock, readers, keys = 200, 5, 4, 120
	cache := NewSharedCache(64)
	key := func(i int) []byte { return ioKey(uint64(i % keys)) }
	val := func(blk, i int) []byte { return []byte{byte(blk), byte(blk >> 8), byte(i)} }

	type version struct {
		root types.Hash
		blk  int
	}
	feeds := make([]chan version, readers)
	var wg sync.WaitGroup
	for r := range feeds {
		// Sized to the number of sends: the writer never waits on a reader.
		feeds[r] = make(chan version, blocks)
		wg.Add(1)
		go func(feed <-chan version) {
			defer wg.Done()
			for v := range feed {
				b, err := NewTrieBackendShared(store, v.root, cache, nil)
				if err != nil {
					t.Error(err)
					return
				}
				// Walk the whole version (all readers cross the same upper
				// nodes at once), then check what this block wrote.
				for i := 0; i < keys; i++ {
					if _, err := b.Get(key(i)); err != nil {
						t.Errorf("block %d: key %d: %v", v.blk, i, err)
						return
					}
				}
				for i := v.blk * perBlock; i < (v.blk+1)*perBlock; i++ {
					if got, err := b.Get(key(i)); err != nil || !bytes.Equal(got, val(v.blk, i)) {
						t.Errorf("block %d: key %d = %x, %v", v.blk, i, got, err)
						return
					}
				}
			}
		}(feeds[r])
	}

	var root types.Hash
	for blk := 0; blk < blocks; blk++ {
		b, err := NewTrieBackendShared(store, root, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		writes := map[string][]byte{}
		for i := blk * perBlock; i < (blk+1)*perBlock; i++ {
			writes[string(key(i))] = val(blk, i)
		}
		if blk%7 == 3 {
			writes[string(key(blk*perBlock+perBlock+1))] = nil
		}
		if root, err = b.Commit(writes); err != nil {
			t.Fatal(err)
		}
		for _, feed := range feeds {
			feed <- version{root, blk}
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()
}

// TestBlockAllocBudget is the data-model layer's allocs/tx budget: one
// IOHeavy block of 10 inserts on a 20000-tuple trie over an LSM, through
// the same backend stack the quorum preset builds per block. The commit
// before hash-carrying nodes and the decoded-node cache spent 765
// allocations here, most of them decoding, copying and re-encoding
// nodes that did not change; with the write set handed to the backend
// as one map it measured 179. With one allocation per stored record and
// a trie that keeps the value it is handed it measured 126, and 83 once
// the LSM carved memtable records from an arena. With one allocation per
// SetState (key and value in one record) and per new leaf (its path
// inline) it measures 64, and the budget is that plus a quarter.
//
// The bytes those allocations take are bounded too. While a branch kept
// its 16 child hashes in its own slots (832 bytes, an 896-byte size
// class) a block allocated 42 471 bytes; with the hashes read from the
// stored encoding (352 bytes) it allocates 30 204, and the bound is that
// plus a quarter. About one run in six reads some 4 900 more on either
// layout (47 390 and 35 122), with the collector off too.
func TestBlockAllocBudget(t *testing.T) {
	const budget, bytesBudget = 80, 37_750
	store := openLSM(t)
	cache, flat := NewSharedCache(4096), NewFlatState(store, 4096)
	var root types.Hash
	for seed := uint64(0); seed < 20000; seed += 500 {
		root = ioBlock(t, store, cache, flat, root, seed, 500)
	}
	seed := uint64(20000)
	block := func() {
		root = ioBlock(t, store, cache, flat, root, seed, 10)
		seed += 10
	}
	// As testing.AllocsPerRun does: one warm-up block, then 20 measured
	// on one P, here with the bytes read off the same two snapshots.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	block()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		block()
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.Mallocs-before.Mallocs) / 20
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 20
	t.Logf("%.0f allocations, %.0f bytes per 10-insert block", avg, bytes)
	if avg > budget {
		t.Fatalf("%.0f allocations per 10-insert block, budget %d", avg, budget)
	}
	if bytes > bytesBudget {
		t.Fatalf("%.0f bytes per 10-insert block, budget %d", bytes, bytesBudget)
	}
}

// TestKeptDBMatchesFreshBlocks runs 100 IOHeavy blocks on one DB, rebound
// after each commit as a chain keeps it, and on a fresh DB per block
// over a store of their own: every root matches, with a node cache and
// flat layer and without. Meanwhile a reader opens DBs at the roots the
// kept DB publishes and reads through the cache and flat layer it
// shares with it (run under -race).
func TestKeptDBMatchesFreshBlocks(t *testing.T) {
	for _, shared := range []bool{false, true} {
		store, freshStore := kvstore.NewMem(), kvstore.NewMem()
		var cache, freshCache *SharedCache
		var flat, freshFlat *FlatState
		if shared {
			cache, flat = NewSharedCache(64), NewFlatState(store, 64)
			freshCache, freshFlat = NewSharedCache(64), NewFlatState(freshStore, 64)
		}
		b, err := NewTrieBackendShared(store, types.ZeroHash, cache, flat)
		if err != nil {
			t.Fatal(err)
		}
		kept := NewDB(b)
		roots := make(chan types.Hash, 100)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for root := range roots {
				b, err := NewTrieBackendShared(store, root, cache, flat)
				if err != nil {
					t.Error(err)
					return
				}
				db := NewDB(b)
				for k := uint64(0); k < 50; k++ {
					db.GetState("ioheavy", ioKey(k))
				}
			}
		}()
		val := make([]byte, 100)
		var fresh types.Hash
		for blk := uint64(0); blk < 100 && !t.Failed(); blk++ {
			for j := uint64(0); j < 10; j++ {
				binary.LittleEndian.PutUint64(val, j)
				kept.SetState("ioheavy", ioKey(blk*7+j), val) // overwrites as well as inserts
			}
			root, err := kept.Commit()
			if err != nil {
				t.Error(err)
				break
			}
			kept.Rebind()
			roots <- root
			if fresh = ioBlock(t, freshStore, freshCache, freshFlat, fresh, blk*7, 10); root != fresh {
				t.Errorf("shared=%v block %d: root %s on the kept DB, %s on fresh ones", shared, blk, root.Short(), fresh.Short())
			}
		}
		close(roots)
		wg.Wait()
	}
}
