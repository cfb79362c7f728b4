// Package bmt implements the Bucket-Merkle tree used by Hyperledger
// Fabric v0.6 for its world-state hash: "Hyperledger implements
// Bucket-Merkle tree which uses a hash function to group states into a
// list of buckets from which a Merkle tree is built."
//
// Unlike the Patricia-Merkle trie, the structure is not versioned: data
// lives directly in the backing key-value store (one record per state
// key). This is why Hyperledger's disk usage in the IOHeavy experiment is
// an order of magnitude below Ethereum's and Parity's, and also why
// historical state queries are impossible without a custom chaincode (the
// paper's VersionKVStore workaround for analytics Q2).
//
// Every level of the tree stays resident, so a commit rehashes only the
// buckets that were written and their ancestor groups: its cost is
// O(write set x depth), independent of the number of buckets or resident
// keys.
package bmt

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// Options configures tree geometry.
type Options struct {
	NumBuckets int // default 10009 (the Fabric v0.6 default)
	Grouping   int // children per interior node, default 10
}

// Tree is a bucket-Merkle tree over a key-value store. It is not safe
// for concurrent use: reads share scratch buffers with mutation.
type Tree struct {
	store      kvstore.Store
	numBuckets int
	grouping   int

	// levels[0][b] is bucket b's digest and the single entry of the last
	// level is the root. After New and after every Commit, levels[l][p]
	// is the fold of levels[l-1][p*grouping:(p+1)*grouping].
	levels [][]types.Hash
	// keys[b] holds bucket b's live keys in ascending order (nil until
	// the bucket receives its first key), so Commit rehashes a dirty
	// bucket in O(bucket size) without scanning the store or sorting
	// (mirroring the real implementation's in-memory bucket cache).
	keys  [][][]byte
	dirty map[int]struct{} // buckets touched since the last Commit

	// Scratch reused across calls; the store copies what it keeps.
	keyBuf []byte // store key under construction
	enc    []byte // preimage of the bucket or group being hashed, reused
	path   []int  // dirty positions of the level being refolded
}

// New opens a bucket tree over store, rebuilding the digest levels and
// the bucket key index from any existing data.
func New(store kvstore.Store, opts Options) (*Tree, error) {
	if opts.NumBuckets <= 0 {
		opts.NumBuckets = 10009
	}
	if opts.Grouping <= 1 {
		opts.Grouping = 10
	}
	t := &Tree{
		store:      store,
		numBuckets: opts.NumBuckets,
		grouping:   opts.Grouping,
		keys:       make([][][]byte, opts.NumBuckets),
		dirty:      make(map[int]struct{}),
	}
	for n := t.numBuckets; ; n = (n + t.grouping - 1) / t.grouping {
		t.levels = append(t.levels, make([]types.Hash, n))
		if n == 1 {
			break
		}
	}
	// Recover digests persisted by a previous instance.
	err := store.Iterate([]byte("d:"), []byte("d;"), func(k, v []byte) bool {
		if len(k) == 6 {
			if b := int(binary.BigEndian.Uint32(k[2:])); b < t.numBuckets {
				t.levels[0][b] = types.BytesToHash(v)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for l := 1; l < len(t.levels); l++ {
		for p := range t.levels[l] {
			t.levels[l][p] = t.foldGroup(l, p)
		}
	}
	// Rebuild the bucket key index with one scan. The store yields
	// (bucket, key) ascending, so each bucket's slice arrives sorted.
	err = store.Iterate([]byte("b:"), []byte("b;"), func(k, v []byte) bool {
		if len(k) >= 7 {
			if b := int(binary.BigEndian.Uint32(k[2:6])); b < t.numBuckets {
				t.keys[b] = append(t.keys[b], bytes.Clone(k[7:]))
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tree) bucketOf(key []byte) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32()) % t.numBuckets
}

// dataKey builds key's store record name in the shared scratch buffer;
// the result is valid until the next dataKey or digestKey call.
func (t *Tree) dataKey(bucket int, key []byte) []byte {
	out := append(t.keyBuf[:0], 'b', ':')
	out = binary.BigEndian.AppendUint32(out, uint32(bucket))
	out = append(out, ':')
	t.keyBuf = append(out, key...)
	return t.keyBuf
}

func (t *Tree) digestKey(bucket int) []byte {
	t.keyBuf = binary.BigEndian.AppendUint32(append(t.keyBuf[:0], 'd', ':'), uint32(bucket))
	return t.keyBuf
}

// Get returns the value for key, or nil if absent.
func (t *Tree) Get(key []byte) ([]byte, error) {
	v, ok, err := t.store.Get(t.dataKey(t.bucketOf(key), key))
	if err != nil || !ok {
		return nil, err
	}
	return v, nil
}

// Put stores key=value and marks the bucket dirty.
func (t *Tree) Put(key, value []byte) error {
	b := t.bucketOf(key)
	if err := t.store.Put(t.dataKey(b, key), value); err != nil {
		return err
	}
	if i, found := slices.BinarySearchFunc(t.keys[b], key, bytes.Compare); !found {
		t.keys[b] = slices.Insert(t.keys[b], i, bytes.Clone(key))
	}
	t.dirty[b] = struct{}{}
	return nil
}

// Delete removes key and marks the bucket dirty.
func (t *Tree) Delete(key []byte) error {
	b := t.bucketOf(key)
	if err := t.store.Delete(t.dataKey(b, key)); err != nil {
		return err
	}
	if i, found := slices.BinarySearchFunc(t.keys[b], key, bytes.Compare); found {
		t.keys[b] = slices.Delete(t.keys[b], i, i+1)
	}
	t.dirty[b] = struct{}{}
	return nil
}

// Commit recomputes the digests of dirty buckets and of their ancestor
// groups, persists the bucket digests, and returns the new root hash.
func (t *Tree) Commit() (types.Hash, error) {
	path := t.path[:0]
	for b := range t.dirty {
		path = append(path, b)
	}
	slices.Sort(path)
	t.path = path
	for _, b := range path {
		h, err := t.hashBucket(b)
		if err != nil {
			return types.ZeroHash, err
		}
		t.levels[0][b] = h
		if err := t.store.Put(t.digestKey(b), t.levels[0][b][:]); err != nil {
			return types.ZeroHash, err
		}
	}
	clear(t.dirty)
	// path holds the changed positions of level l-1 in ascending order;
	// rewrite it in place as their distinct parents while refolding them.
	for l := 1; l < len(t.levels); l++ {
		n := 0
		for _, i := range path {
			p := i / t.grouping
			if n > 0 && path[n-1] == p {
				continue
			}
			path[n] = p
			n++
			t.levels[l][p] = t.foldGroup(l, p)
		}
		path = path[:n]
	}
	return t.RootHash(), nil
}

// hashBucket hashes bucket b's entries in key order.
func (t *Tree) hashBucket(b int) (types.Hash, error) {
	if len(t.keys[b]) == 0 {
		return types.ZeroHash, nil
	}
	t.enc = t.enc[:0]
	for _, k := range t.keys[b] {
		v, ok, err := t.store.Get(t.dataKey(b, k))
		if err != nil {
			return types.ZeroHash, err
		}
		if !ok {
			continue
		}
		t.enc = types.AppendBytes(types.AppendBytes(t.enc, k), v)
	}
	return types.HashData(t.enc), nil
}

// foldGroup hashes the p-th group of level l-1 into its level-l digest.
// A group of all-zero digests (no live key below it) folds to ZeroHash.
func (t *Tree) foldGroup(l, p int) types.Hash {
	below := t.levels[l-1]
	group := below[p*t.grouping : min((p+1)*t.grouping, len(below))]
	t.enc = t.enc[:0]
	empty := true
	for i := range group {
		t.enc = append(t.enc, group[i][:]...)
		if !group[i].IsZero() {
			empty = false
		}
	}
	if empty {
		return types.ZeroHash
	}
	return types.HashData(t.enc)
}

// RootHash returns the last committed root. Dirty buckets are reflected
// only after Commit.
func (t *Tree) RootHash() types.Hash { return t.levels[len(t.levels)-1][0] }

// Iterate walks every key/value pair in the tree. Order is by (bucket,
// key), which is stable but not globally key-ordered — matching the
// unordered bucket layout of the real system.
func (t *Tree) Iterate(fn func(key, value []byte) bool) error {
	return t.store.Iterate([]byte("b:"), []byte("b;"), func(k, v []byte) bool {
		// strip "b:" + 4-byte bucket + ":"
		if len(k) < 7 {
			return true
		}
		return fn(k[7:], v)
	})
}
