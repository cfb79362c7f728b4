package state

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"unsafe"

	"blockbench/internal/kvstore"
	"blockbench/internal/lru"
	"blockbench/internal/types"
)

// Flat-state snapshot layer (geth's "snapshot" acceleration structure):
// a flat key→value map kept in front of the Patricia-Merkle trie, so
// head-state point reads cost one map/store lookup instead of a nibble
// walk proportional to trie depth. The trie stays authoritative — root
// computation and historical reads still walk nibbles — the flat layer
// only short-circuits reads anchored at the current head root.
//
// Coherence: the layer is anchored at one state root. At every backend
// commit, Advance folds the block's write-set in and moves the anchor
// to the new root. A commit whose parent is not the anchor (a fork
// block, or a node executing a side chain) resets the layer and
// re-anchors at that commit — correctness never depends on the flat
// content, so resets only cost warm-up misses.
//
// Entries are persisted write-through into the same kvstore.Store that
// holds the trie nodes, under generation-prefixed keys ("f:<gen>:…"), so
// the hot set survives beyond the in-memory LRU without unbounded
// memory, and a reset invalidates every persisted entry in O(1) by
// bumping the generation.

// FlatState is one node's flat snapshot layer. Safe for concurrent use.
type FlatState struct {
	mu     sync.Mutex
	store  kvstore.Store
	cache  *lru.Cache[lruKey, []byte]
	root   types.Hash
	gen    uint64
	keyBuf []byte // flatKey scratch, used under mu

	// hits counts every read the layer served; persisted, the ones among
	// them that the store answered because the LRU no longer held the key.
	hits, persisted, misses, stale, resets uint64
}

// NewFlatState creates a flat layer over store with an in-memory LRU of
// at most entries values (entries <= 0 picks a small default).
//
// A store that survived a process crash still holds the previous life's
// persisted entries — that life's *head* state, which journal replay
// must never read mid-history. The generation counter lives only in
// memory, so a life that started again from zero would collide with
// them; scanning for the highest persisted generation and starting
// above it makes every inherited entry invisible (the documented O(1)
// reset, applied at open).
func NewFlatState(store kvstore.Store, entries int) *FlatState {
	if entries <= 0 {
		entries = 1024
	}
	f := &FlatState{store: store, cache: lru.New[lruKey, []byte](entries)}
	found := false
	store.Iterate([]byte("f:"), []byte("f;"), func(k, _ []byte) bool {
		if len(k) >= 10 {
			if g := binary.BigEndian.Uint64(k[2:10]); !found || g >= f.gen {
				f.gen, found = g+1, true
			}
		}
		return true
	})
	return f
}

// lruKey is a key as the LRU holds it: a value, so a lookup builds it on
// the stack. A key of up to 32 bytes (DB.keyArr's size, which fits every
// registry contract's keys) is held inline with its length, so "k" and
// "k\x00" stay distinct; a longer one is held as a string.
type lruKey struct {
	n    uint8
	b    [32]byte
	long string
}

// lruKeyFor keys key. A longer key's string is key itself: a lookup may
// pass bytes it does not own, a key the LRU keeps must own them.
func lruKeyFor(key string) (k lruKey) {
	if len(key) > len(k.b) {
		k.long = key
	} else {
		k.n = uint8(copy(k.b[:], key))
	}
	return k
}

// flatKey builds "f:<gen>:key" in the layer's scratch buffer: callers
// hold f.mu, and no storage engine keeps its key argument.
func flatKey[K string | []byte](f *FlatState, key K) []byte {
	b := append(f.keyBuf[:0], 'f', ':')
	b = binary.BigEndian.AppendUint64(b, f.gen)
	b = append(b, key...)
	f.keyBuf = b
	return b
}

// Get serves a point read if the layer is anchored at root and knows the
// key; ok=false sends the caller down the trie walk. Values are shared
// (read-only by convention, like trie reads).
func (f *FlatState) Get(root types.Hash, key []byte) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if root != f.root {
		f.stale++
		return nil, false
	}
	// The lookup keeps nothing, so a long key reads the caller's bytes in
	// place; only one that enters the LRU below is copied.
	k := lruKeyFor(unsafe.String(unsafe.SliceData(key), len(key)))
	if v, ok := f.cache.Get(k); ok {
		f.hits++
		return v, true
	}
	v, ok, err := f.store.Get(flatKey(f, key))
	if err != nil || !ok {
		// Absence here does not mean absence in state (the key may simply
		// never have been written since the layer was anchored), so the
		// caller must fall through to the trie.
		f.misses++
		return nil, false
	}
	k.long = strings.Clone(k.long)
	f.cache.Put(k, v)
	f.hits++
	f.persisted++
	return v, true
}

// Advance folds a committed block's write-set into the layer and moves
// the anchor from parent to root. Re-committing the block the layer is
// already anchored at is a no-op; a commit from any other parent resets
// the layer (new generation, LRU cleared in place) and re-anchors at root.
// So does a write the store fails: the key's older persisted value
// would otherwise be served once the LRU evicts the new one. A record
// the store refuses by size (kvstore.ErrTooLarge) is not a failure of
// the store: the key's older persisted value is deleted (there is none
// under a key too long to store), and the LRU alone holds the new one.
func (f *FlatState) Advance(parent, root types.Hash, writes map[string][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if root == f.root {
		return
	}
	if parent != f.root {
		f.resetLocked()
	}
	for k, v := range writes {
		var err error
		if v == nil {
			f.cache.Remove(lruKeyFor(k))
			err = f.store.Delete(flatKey(f, k))
		} else {
			f.cache.Put(lruKeyFor(k), v)
			err = f.store.Put(flatKey(f, k), v)
		}
		if errors.Is(err, kvstore.ErrTooLarge) && v != nil {
			err = f.store.Delete(flatKey(f, k))
		}
		if err != nil && !errors.Is(err, kvstore.ErrTooLarge) {
			f.resetLocked()
			break
		}
	}
	f.root = root
}

// resetLocked empties the layer in O(1): every persisted entry is under
// an older generation from here on.
func (f *FlatState) resetLocked() {
	f.gen++
	f.cache.Clear()
	f.resets++
}

// Counters implements metrics.CounterProvider.
func (f *FlatState) Counters() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]uint64{
		"store.flat_hits":           f.hits,
		"store.flat_persisted_hits": f.persisted,
		"store.flat_misses":         f.misses + f.stale,
		"store.flat_resets":         f.resets,
	}
}
