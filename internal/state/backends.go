package state

import (
	"bytes"
	"sync"

	"blockbench/internal/bmt"
	"blockbench/internal/kvstore"
	"blockbench/internal/lru"
	"blockbench/internal/mpt"
	"blockbench/internal/types"
)

// SharedCache is a thread-safe LRU of decoded trie nodes keyed by
// content hash, shared across all trie versions of one node. Because a
// persisted node is immutable under its hash, the cache can never serve
// a stale value — head and historical reads both hit it safely (geth's
// state cache works the same way) — and a hit costs no decode.
type SharedCache struct {
	mu  sync.Mutex
	lru *lru.Cache[types.Hash, mpt.Node]
}

// NewSharedCache creates a cache holding up to capacity nodes.
func NewSharedCache(capacity int) *SharedCache {
	return &SharedCache{lru: lru.New[types.Hash, mpt.Node](capacity)}
}

// Get implements mpt.NodeCache.
func (c *SharedCache) Get(h types.Hash) (mpt.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(h)
}

// Put implements mpt.NodeCache.
func (c *SharedCache) Put(h types.Hash, n mpt.Node) {
	c.mu.Lock()
	c.lru.Put(h, n)
	c.mu.Unlock()
}

// TrieBackend authenticates state with a Patricia-Merkle trie persisted
// into a key-value store (the Ethereum/Parity data model). An optional
// LRU value cache in front of the trie models geth's partial in-memory
// state caching; Parity instead pins everything by using an uncapped
// in-memory store underneath.
type TrieBackend struct {
	trie  *mpt.Trie
	store kvstore.Store
}

// NewTrieBackend opens a trie backend at root. cacheEntries > 0 installs
// a backend-private LRU node cache; to share one cache across all the
// backends of a node, use NewTrieBackendShared.
func NewTrieBackend(store kvstore.Store, root types.Hash, cacheEntries int) (*TrieBackend, error) {
	var cache *SharedCache
	if cacheEntries > 0 {
		cache = NewSharedCache(cacheEntries)
	}
	return NewTrieBackendShared(store, root, cache)
}

// NewTrieBackendShared opens a trie backend at root using the given
// (possibly nil) shared node cache.
func NewTrieBackendShared(store kvstore.Store, root types.Hash, cache *SharedCache) (*TrieBackend, error) {
	var nc mpt.NodeCache
	if cache != nil {
		nc = cache
	}
	trie, err := mpt.NewWithCache(store, root, nc)
	if err != nil {
		return nil, err
	}
	return &TrieBackend{trie: trie, store: store}, nil
}

// Get implements Backend.
func (b *TrieBackend) Get(key []byte) ([]byte, error) { return b.trie.Get(key) }

// Put implements Backend.
func (b *TrieBackend) Put(key, value []byte) error { return b.trie.Put(key, value) }

// Delete implements Backend.
func (b *TrieBackend) Delete(key []byte) error { return b.trie.Delete(key) }

// Commit implements Backend.
func (b *TrieBackend) Commit() (types.Hash, error) { return b.trie.Commit() }

// Iterate implements Backend (ascending key order).
func (b *TrieBackend) Iterate(fn func(k, v []byte) bool) error { return b.trie.Iterate(fn) }

// IterateRange implements Backend. The trie walk is in ascending key
// order, so the scan stops as soon as it passes end.
func (b *TrieBackend) IterateRange(start, end []byte, fn func(k, v []byte) bool) error {
	return b.trie.Iterate(func(k, v []byte) bool {
		if start != nil && bytes.Compare(k, start) < 0 {
			return true
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			return false
		}
		return fn(k, v)
	})
}

// MemBytes implements Backend.
func (b *TrieBackend) MemBytes() int64 { return b.store.Stats().MemBytes }

// NodesWritten exposes trie write amplification for the IOHeavy report.
func (b *TrieBackend) NodesWritten() uint64 { return b.trie.NodesWritten() }

// BucketBackend authenticates state with a Bucket-Merkle tree directly
// over the storage engine (the Hyperledger data model: "outsources its
// data management entirely to the storage engine").
type BucketBackend struct {
	tree  *bmt.Tree
	store kvstore.Store
}

// NewBucketBackend opens a bucket-tree backend.
func NewBucketBackend(store kvstore.Store, opts bmt.Options) (*BucketBackend, error) {
	tree, err := bmt.New(store, opts)
	if err != nil {
		return nil, err
	}
	return &BucketBackend{tree: tree, store: store}, nil
}

// Get implements Backend.
func (b *BucketBackend) Get(key []byte) ([]byte, error) { return b.tree.Get(key) }

// Put implements Backend.
func (b *BucketBackend) Put(key, value []byte) error { return b.tree.Put(key, value) }

// Delete implements Backend.
func (b *BucketBackend) Delete(key []byte) error { return b.tree.Delete(key) }

// Commit implements Backend.
func (b *BucketBackend) Commit() (types.Hash, error) { return b.tree.Commit() }

// Iterate implements Backend (bucket order, not key order — matching the
// real system's unordered bucket layout).
func (b *BucketBackend) Iterate(fn func(k, v []byte) bool) error { return b.tree.Iterate(fn) }

// IterateRange implements Backend. Bucket order gives no early-stop
// opportunity; the full walk is filtered to the span.
func (b *BucketBackend) IterateRange(start, end []byte, fn func(k, v []byte) bool) error {
	return b.tree.Iterate(func(k, v []byte) bool {
		if start != nil && bytes.Compare(k, start) < 0 {
			return true
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			return true
		}
		return fn(k, v)
	})
}

// MemBytes implements Backend.
func (b *BucketBackend) MemBytes() int64 { return b.store.Stats().MemBytes }
