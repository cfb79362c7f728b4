package mpt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// TestQuickCanonicalRoot: any random key/value set yields the same root
// regardless of insertion order — the property that makes state roots
// comparable across nodes that received transactions in gossip order.
func TestQuickCanonicalRoot(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte, seed int64) bool {
		if len(keys) == 0 || len(vals) == 0 {
			return true
		}
		// Normalize into a deduplicated map (later writes win, as in a
		// real state update batch).
		m := map[string][]byte{}
		for i, k := range keys {
			if len(k) == 0 {
				continue
			}
			m[string(k)] = vals[i%len(vals)]
		}
		t1, _ := New(kvstore.NewMem(), types.ZeroHash)
		for k, v := range m { // map order: already random
			if err := t1.Put([]byte(k), v); err != nil {
				return false
			}
		}
		t2, _ := New(kvstore.NewMem(), types.ZeroHash)
		order := make([]string, 0, len(m))
		for k := range m {
			order = append(order, k)
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			if err := t2.Put([]byte(k), m[k]); err != nil {
				return false
			}
		}
		h1, err1 := t1.Hash()
		h2, err2 := t2.Hash()
		return err1 == nil && err2 == nil && h1 == h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCommitRoundTrip: any committed set reads back identically
// from a reopened trie.
func TestQuickCommitRoundTrip(t *testing.T) {
	f := func(keys [][]byte, val []byte) bool {
		store := kvstore.NewMem()
		tr, _ := New(store, types.ZeroHash)
		m := map[string][]byte{}
		for i, k := range keys {
			if len(k) == 0 || len(k) > 64 {
				continue
			}
			v := append([]byte{byte(i)}, val...)
			m[string(k)] = v
			if err := tr.Put(k, v); err != nil {
				return false
			}
		}
		root, err := tr.Commit()
		if err != nil {
			return false
		}
		re, err := New(store, root)
		if err != nil {
			return false
		}
		for k, v := range m {
			got, err := re.Get([]byte(k))
			if err != nil || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeleteInverse: Put followed by Delete of fresh keys restores
// the previous root exactly.
func TestQuickDeleteInverse(t *testing.T) {
	f := func(base [][]byte, extra [][]byte) bool {
		tr, _ := New(kvstore.NewMem(), types.ZeroHash)
		seen := map[string]bool{}
		for _, k := range base {
			if len(k) == 0 {
				continue
			}
			seen[string(k)] = true
			tr.Put(k, []byte("base"))
		}
		before, err := tr.Hash()
		if err != nil {
			return false
		}
		var added [][]byte
		for _, k := range extra {
			if len(k) == 0 || seen[string(k)] {
				continue
			}
			seen[string(k)] = true
			added = append(added, k)
			tr.Put(k, []byte("extra"))
		}
		for _, k := range added {
			tr.Delete(k)
		}
		after, err := tr.Hash()
		return err == nil && after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIncrementalMatchesRebuild: a trie driven through a random
// put/delete/commit/reopen sequence — in-place mutation of its dirty
// nodes, copies of its clean ones, hashes cached by Hash, a node cache
// shared across the reopens — agrees at every commit with a trie built
// from scratch out of the surviving key set, and every surviving key
// reads back from a fresh trie opened at that root with no cache at all:
// nothing that had to be persisted was skipped as clean. The nodes it
// published to the cache stay exactly as published (checkPublished).
func TestQuickIncrementalMatchesRebuild(t *testing.T) {
	f := func(seed int64, shared bool) bool {
		rng := rand.New(rand.NewSource(seed))
		store := kvstore.NewMem()
		var cache NodeCache
		published := newMapCache()
		if shared {
			cache = published
		}
		tr, _ := NewWithCache(store, types.ZeroHash, cache)
		model := map[string][]byte{}
		key := func() []byte {
			// Short keys over a small alphabet: shared prefixes, keys that
			// are prefixes of other keys, and frequent re-use.
			k := make([]byte, 1+rng.Intn(3))
			for i := range k {
				k[i] = byte(rng.Intn(4)) << 4
			}
			return k
		}
		rebuilt := func() types.Hash {
			fresh, _ := New(nil, types.ZeroHash)
			for k, v := range model {
				fresh.Put([]byte(k), v)
			}
			h, _ := fresh.Hash()
			return h
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				k, v := key(), []byte{byte(step), byte(step >> 8)}
				model[string(k)] = v
				if tr.Put(k, v) != nil {
					return false
				}
			case op < 8:
				k := key()
				delete(model, string(k))
				if tr.Delete(k) != nil {
					return false
				}
			case op < 9:
				if h, err := tr.Hash(); err != nil || h != rebuilt() {
					return false
				}
			default:
				root, err := tr.Commit()
				if err != nil || root != rebuilt() {
					return false
				}
				cold, _ := New(store, root)
				for k, v := range model {
					if got, err := cold.Get([]byte(k)); err != nil || !bytes.Equal(got, v) {
						return false
					}
				}
				count := 0
				if cold.Iterate(func(_, _ []byte) bool { count++; return true }) != nil || count != len(model) {
					return false
				}
				checkPublished(t, published)
				if rng.Intn(2) == 0 {
					tr, _ = NewWithCache(store, root, cache)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLongKeysMatchRebuild is TestQuickIncrementalMatchesRebuild's
// check for keys longer than a leaf's inline path storage: 2, 33 and
// 42-byte keys that share long runs, so leaf paths fall on both sides of
// 64 nibbles and splits share the paths of leaves of either kind.
func TestQuickLongKeysMatchRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		store := kvstore.NewMem()
		tr, _ := NewWithCache(store, types.ZeroHash, newMapCache())
		model := map[string][]byte{}
		for step := 0; step < 200; step++ {
			k := append([]byte{byte(rng.Intn(3)) << 4}, bytes.Repeat([]byte{0x5a}, []int{0, 31, 40}[rng.Intn(3)])...)
			k = append(k, byte(rng.Intn(4)))
			if rng.Intn(4) == 0 {
				delete(model, string(k))
				if tr.Delete(k) != nil {
					return false
				}
			} else {
				v := []byte{byte(step), byte(step >> 8)}
				model[string(k)] = v
				if tr.Put(k, v) != nil {
					return false
				}
			}
			if step%20 != 19 {
				continue
			}
			fresh, _ := New(nil, types.ZeroHash)
			for k, v := range model {
				fresh.Put([]byte(k), v)
			}
			want, _ := fresh.Hash()
			root, err := tr.Commit()
			if err != nil || root != want {
				return false
			}
			cold, _ := New(store, root)
			for k, v := range model {
				if got, err := cold.Get([]byte(k)); err != nil || !bytes.Equal(got, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
