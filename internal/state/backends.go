package state

import (
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
// into a key-value store (the Ethereum/Parity data model). Two optional
// parts model geth's partial in-memory state: an LRU of decoded trie
// nodes, and a flat snapshot layer that answers head-state point reads
// before the trie is walked. Parity instead pins everything by using an
// uncapped in-memory store underneath. Roots are computed by the trie
// alone, so they are byte-identical with or without either part.
type TrieBackend struct {
	trie *mpt.Trie
	flat *FlatState // nil: every read walks the trie
	root types.Hash // root this backend reads at, the flat layer's anchor
}

// NewTrieBackend opens a trie backend at root. cacheEntries > 0 installs
// a backend-private LRU node cache; to share one cache across all the
// backends of a node, or to put a flat layer in front, use
// NewTrieBackendShared.
func NewTrieBackend(store kvstore.Store, root types.Hash, cacheEntries int) (*TrieBackend, error) {
	var cache *SharedCache
	if cacheEntries > 0 {
		cache = NewSharedCache(cacheEntries)
	}
	return NewTrieBackendShared(store, root, cache, nil)
}

// NewTrieBackendShared opens a trie backend at root using the node's
// shared node cache and flat layer; either may be nil.
func NewTrieBackendShared(store kvstore.Store, root types.Hash, cache *SharedCache, flat *FlatState) (*TrieBackend, error) {
	var nc mpt.NodeCache
	if cache != nil {
		nc = cache
	}
	trie, err := mpt.NewWithCache(store, root, nc)
	if err != nil {
		return nil, err
	}
	return &TrieBackend{trie: trie, flat: flat, root: root}, nil
}

// Get implements Backend: the flat layer first, the trie walk on a miss.
func (b *TrieBackend) Get(key []byte) ([]byte, error) {
	if b.flat != nil {
		if v, ok := b.flat.Get(b.root, key); ok {
			return v, nil
		}
	}
	return b.trie.Get(key)
}

// Commit implements Backend: the trie takes the write set and computes
// the root, then the flat layer advances to it with the same map. The
// backend owns the map, so the trie keeps its values as they are.
func (b *TrieBackend) Commit(writes map[string][]byte) (types.Hash, error) {
	// The calls are on the concrete trie, which does not keep its key
	// argument, so the conversions below copy nothing; through an
	// interface each would be a heap allocation.
	for k, v := range writes {
		var err error
		if v == nil {
			err = b.trie.Delete([]byte(k))
		} else {
			err = b.trie.Put([]byte(k), v)
		}
		if err != nil {
			return types.ZeroHash, err
		}
	}
	root, err := b.trie.Commit()
	if err != nil {
		return root, err
	}
	if b.flat != nil {
		b.flat.Advance(b.root, root, writes)
	}
	b.root = root
	return root, nil
}

// BucketBackend authenticates state with a Bucket-Merkle tree directly
// over the storage engine (the Hyperledger data model: "outsources its
// data management entirely to the storage engine").
type BucketBackend struct {
	tree *bmt.Tree
	// key is Commit's scratch: each write-set key is copied into it
	// for Tree.Put/Delete, neither of which keeps it (Put clones a key
	// only when the key is new to its bucket).
	key []byte
}

// NewBucketBackend opens a bucket-tree backend.
func NewBucketBackend(store kvstore.Store, opts bmt.Options) (*BucketBackend, error) {
	tree, err := bmt.New(store, opts)
	if err != nil {
		return nil, err
	}
	return &BucketBackend{tree: tree}, nil
}

// Get implements Backend.
func (b *BucketBackend) Get(key []byte) ([]byte, error) { return b.tree.Get(key) }

// Commit implements Backend.
func (b *BucketBackend) Commit(writes map[string][]byte) (types.Hash, error) {
	for k, v := range writes {
		b.key = append(b.key[:0], k...)
		var err error
		if v == nil {
			err = b.tree.Delete(b.key)
		} else {
			err = b.tree.Put(b.key, v)
		}
		if err != nil {
			return types.ZeroHash, err
		}
	}
	return b.tree.Commit()
}
