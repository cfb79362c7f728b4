package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/lru"
	"blockbench/internal/types"
)

// TestFlatBackendRootsMatchTrie is the coherence contract: the same
// block sequence committed through a plain trie over a Mem store and
// through the flat-fronted trie over the LSM engine must produce
// byte-identical state roots at every block, and identical reads when
// reopened at any committed root.
func TestFlatBackendRootsMatchTrie(t *testing.T) {
	memStore := kvstore.NewMem()
	defer memStore.Close()
	lsmStore, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{MemTableBytes: 1 << 12, SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lsmStore.Close()

	trieB, err := NewTrieBackend(memStore, types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	trieDB := NewDB(trieB)

	flat := NewFlatState(lsmStore, 512)
	cache := NewSharedCache(256)
	flatRoot := types.ZeroHash
	newFlatDB := func(root types.Hash) *DB {
		fb, err := NewTrieBackendShared(lsmStore, root, cache, flat)
		if err != nil {
			t.Fatal(err)
		}
		return NewDB(fb)
	}

	rng := rand.New(rand.NewSource(11))
	var roots []types.Hash
	for block := 0; block < 20; block++ {
		flatDB := newFlatDB(flatRoot)
		for i := 0; i < 30; i++ {
			k := []byte(fmt.Sprintf("acct-%03d", rng.Intn(120)))
			if rng.Intn(8) == 0 {
				trieDB.DeleteState("c", k)
				flatDB.DeleteState("c", k)
				continue
			}
			v := []byte(fmt.Sprintf("bal-%d-%d", block, i))
			trieDB.SetState("c", k, v)
			flatDB.SetState("c", k, v)
		}
		trieRoot, err := trieDB.Commit()
		if err != nil {
			t.Fatal(err)
		}
		fr, err := flatDB.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if fr != trieRoot {
			t.Fatalf("block %d: roots diverge: trie %x, flat/lsm %x", block, trieRoot, fr)
		}
		flatRoot = fr
		roots = append(roots, fr)
	}

	// Reads at the head root agree between the two stacks.
	headDB := newFlatDB(flatRoot)
	for i := 0; i < 120; i++ {
		k := []byte(fmt.Sprintf("acct-%03d", i))
		if got, want := headDB.GetState("c", k), trieDB.GetState("c", k); string(got) != string(want) {
			t.Fatalf("head read %s: flat/lsm %q, trie %q", k, got, want)
		}
	}
	// Historical roots stay readable (the flat layer must not serve
	// entries anchored at a different root).
	histDB := newFlatDB(roots[4])
	if histDB == nil {
		t.Fatal("historical open failed")
	}
	c := flat.Counters()
	if c["store.flat_hits"] == 0 {
		t.Fatal("flat layer never served a head read")
	}
}

// TestFlatStateAnchoring pins the layer's coherence rules: reads at a
// non-anchor root miss, a replayed commit is a no-op, and a commit from
// a different parent resets the layer.
func TestFlatStateAnchoring(t *testing.T) {
	store := kvstore.NewMem()
	defer store.Close()
	f := NewFlatState(store, 16)

	rootA := types.Hash{1}
	rootB := types.Hash{2}
	f.Advance(types.ZeroHash, rootA, map[string][]byte{"k": []byte("va")})

	if v, ok := f.Get(rootA, []byte("k")); !ok || string(v) != "va" {
		t.Fatalf("anchored read = %q,%v", v, ok)
	}
	if _, ok := f.Get(rootB, []byte("k")); ok {
		t.Fatal("read at foreign root served from flat layer")
	}

	// Replay of the anchored commit: no reset, content intact.
	f.Advance(types.ZeroHash, rootA, map[string][]byte{"k": []byte("stale")})
	if v, _ := f.Get(rootA, []byte("k")); string(v) != "va" {
		t.Fatalf("replayed commit mutated the layer: %q", v)
	}

	// Fork: a commit whose parent is not the anchor resets the layer.
	f.Advance(rootB, types.Hash{3}, map[string][]byte{"k2": []byte("vb")})
	if _, ok := f.Get(rootA, []byte("k")); ok {
		t.Fatal("pre-fork entry survived reset")
	}
	if v, ok := f.Get(types.Hash{3}, []byte("k2")); !ok || string(v) != "vb" {
		t.Fatalf("post-fork write not served: %q,%v", v, ok)
	}
	c := f.Counters()
	if c["store.flat_resets"] != 1 {
		t.Fatalf("resets = %d, want 1", c["store.flat_resets"])
	}
	// The pre-fork persisted entry is invisible under the new generation
	// even though it is still in the store.
	if _, ok := f.Get(types.Hash{3}, []byte("k")); ok {
		t.Fatal("old-generation persisted entry leaked across reset")
	}
}

// TestFlatStateDeletionShadows ensures a deleted key stops being served
// (absence must fall through to the trie, never claim presence).
func TestFlatStateDeletionShadows(t *testing.T) {
	store := kvstore.NewMem()
	defer store.Close()
	f := NewFlatState(store, 16)
	r1, r2 := types.Hash{1}, types.Hash{2}
	f.Advance(types.ZeroHash, r1, map[string][]byte{"k": []byte("v")})
	f.Advance(r1, r2, map[string][]byte{"k": nil})
	if _, ok := f.Get(r2, []byte("k")); ok {
		t.Fatal("deleted key still served by flat layer")
	}
}

// failNextWrite is a store whose next Put or Delete fails once armed.
type failNextWrite struct {
	kvstore.Store
	armed bool
}

var errWriteFailed = errors.New("injected write failure")

func (s *failNextWrite) fail() error {
	if s.armed {
		s.armed = false
		return errWriteFailed
	}
	return nil
}

func (s *failNextWrite) Put(k, v []byte) error {
	if err := s.fail(); err != nil {
		return err
	}
	return s.Store.Put(k, v)
}

func (s *failNextWrite) Delete(k []byte) error {
	if err := s.fail(); err != nil {
		return err
	}
	return s.Store.Delete(k)
}

// TestFlatStateFailedWriteResets: a write the store fails leaves the
// key's older value persisted, and once a one-entry LRU has evicted the
// newer one the layer must not serve it. Before a failed write reset
// the layer, Get answered "old" where the state held "new" (failed Put)
// or nothing (failed Delete).
func TestFlatStateFailedWriteResets(t *testing.T) {
	for _, tc := range []struct {
		name string
		next []byte // nil: the block deletes the key
	}{{"put", []byte("new")}, {"delete", nil}} {
		store := &failNextWrite{Store: kvstore.NewMem()}
		f := NewFlatState(store, 1)
		r1, r2, r3 := types.Hash{1}, types.Hash{2}, types.Hash{3}
		f.Advance(types.ZeroHash, r1, map[string][]byte{"k": []byte("old")})
		store.armed = true
		f.Advance(r1, r2, map[string][]byte{"k": tc.next})
		f.Advance(r2, r3, map[string][]byte{"evicts k": []byte("x")})
		if v, ok := f.Get(r3, []byte("k")); ok && (tc.next == nil || !bytes.Equal(v, tc.next)) {
			t.Errorf("%s: Get = %q after the failed write, state holds %q", tc.name, v, tc.next)
		}
		if n := f.Counters()["store.flat_resets"]; n != 1 {
			t.Errorf("%s: %d resets, want 1", tc.name, n)
		}
	}
}

// refuseValue is a store that refuses, by size, every Put of one value.
type refuseValue struct {
	kvstore.Store
	value string
}

func (s *refuseValue) Put(k, v []byte) error {
	if string(v) == s.value {
		return fmt.Errorf("%w: injected", kvstore.ErrTooLarge)
	}
	return s.Store.Put(k, v)
}

// TestFlatStateRefusedRecordKeepsLayer: a put the store refuses by size
// (kvstore.ErrTooLarge) does not reset the layer, and it deletes the
// key's older persisted value, so once the LRU evicts the new value the
// layer misses rather than serve the old one.
func TestFlatStateRefusedRecordKeepsLayer(t *testing.T) {
	f := NewFlatState(&refuseValue{Store: kvstore.NewMem(), value: "huge"}, 1)
	r1, r2, r3 := types.Hash{1}, types.Hash{2}, types.Hash{3}
	f.Advance(types.ZeroHash, r1, map[string][]byte{"k": []byte("old")})
	f.Advance(r1, r2, map[string][]byte{"k": []byte("huge")})
	if v, ok := f.Get(r2, []byte("k")); !ok || string(v) != "huge" {
		t.Errorf("Get = %q, %v after the refused put; want the LRU's %q", v, ok, "huge")
	}
	f.Advance(r2, r3, map[string][]byte{"evicts k": []byte("x")})
	if v, ok := f.Get(r3, []byte("k")); ok {
		t.Errorf("Get = %q once the LRU evicted the refused value; want a miss", v)
	}
	if n := f.Counters()["store.flat_resets"]; n != 0 {
		t.Errorf("%d resets, want 0", n)
	}
}

// TestFlatStateSkipsUnstorableKey: the LSM refuses a key longer than a
// run's sparse index can record (uint16 lengths), the flat layer keeps
// it in its LRU only and persists nothing of it, and the trie, which
// stores only hashes as keys, still serves it. The store flushes and
// reopens — after the parent commit's flush of such a key, OpenLSM
// failed.
func TestFlatStateSkipsUnstorableKey(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte{'k'}, 70_000)
	b, err := NewTrieBackendShared(store, types.ZeroHash, nil, NewFlatState(store, 16))
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(b)
	db.SetState("c", long, []byte("long"))
	db.SetState("c", []byte("short"), []byte("short"))
	root, err := db.Commit()
	if err != nil {
		t.Fatal(err)
	}
	store.Iterate([]byte("f:"), []byte("f;"), func(k, _ []byte) bool {
		if len(k) > 1<<16 {
			t.Errorf("the flat layer persisted a %d-byte key", len(k))
		}
		return true
	})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if store, err = kvstore.OpenLSM(dir, kvstore.LSMOptions{}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store.Close()
	if b, err = NewTrieBackendShared(store, root, nil, NewFlatState(store, 16)); err != nil {
		t.Fatal(err)
	}
	if v := NewDB(b).GetState("c", long); string(v) != "long" {
		t.Fatalf("the long key reads %q after reopen", v)
	}
}

// TestFlatStateLRUSpill: entries evicted from the in-memory LRU are
// still served from the write-through store copy.
func TestFlatStateLRUSpill(t *testing.T) {
	store := kvstore.NewMem()
	defer store.Close()
	f := NewFlatState(store, 4)
	root := types.Hash{9}
	writes := make(map[string][]byte)
	for i := 0; i < 64; i++ {
		writes[fmt.Sprintf("k%02d", i)] = []byte(fmt.Sprintf("v%d", i))
	}
	f.Advance(types.ZeroHash, root, writes)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, ok := f.Get(root, []byte(k))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("spilled entry %s not served: %q,%v", k, v, ok)
		}
	}
}

// TestFlatStateKeysMatchStringModel drives a FlatState and a model whose
// LRU is keyed on strings through one seeded mix of reads and one-write
// blocks: puts, deletes, re-commits and fork resets, and reads at a
// foreign root, and writes of a key the LSM refuses by size, which the
// LRU alone holds. Every read and every counter must agree after every
// step.
// Two keys one representation tells apart and the other merges would read
// each other's values; a key held differently would change which keys stay
// resident and so the split between LRU and persisted hits. Reads pass a
// reused buffer, as DB does, so a long key the LRU kept without copying
// would be rewritten under it.
func TestFlatStateKeysMatchStringModel(t *testing.T) {
	p := strings.Repeat("p", 32)
	keys := []string{
		"", "k", "k\x00", "k\x00\x00", // lengths 0 and 1, trailing zeros
		p[:31], p[:31] + "\x00", p, p + "\x00", // 31, 32 and 33 bytes
		p + "a", p + "b", p + "tail-0", p + "tail-1", // differ past byte 32
		strings.Repeat("k", 70_000), // refused by the LSM: only the LRU holds it
	}
	store, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{MemTableBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const entries = 4
	f := NewFlatState(store, entries)

	cache, stored := lru.New[string, []byte](entries), map[string][]byte{}
	want := map[string]uint64{"store.flat_hits": 0, "store.flat_persisted_hits": 0, "store.flat_misses": 0, "store.flat_resets": 0}
	var anchor types.Hash
	blocks := uint64(0)
	advance := func(parent types.Hash, k string, v []byte) {
		blocks++
		var root types.Hash
		binary.BigEndian.PutUint64(root[:], blocks)
		f.Advance(parent, root, map[string][]byte{k: v})
		if parent != anchor {
			cache.Clear()
			clear(stored)
			want["store.flat_resets"]++
		}
		switch {
		case v == nil:
			cache.Remove(k)
			delete(stored, k)
		case len(k)+10 > math.MaxUint16: // the store refuses the key
			cache.Put(k, v)
		default:
			cache.Put(k, v)
			stored[k] = v
		}
		anchor = root
	}

	rng := rand.New(rand.NewSource(26))
	var buf []byte
	for step := 0; step < 5000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(20); {
		case op < 12:
			root := anchor
			if op == 0 {
				root = types.Hash{0xff}
			}
			buf = append(buf[:0], k...)
			got, ok := f.Get(root, buf)
			var exp []byte
			var expOK bool
			if root == anchor {
				exp, expOK = cache.Get(k)
				if !expOK {
					if exp, expOK = stored[k]; expOK {
						cache.Put(k, exp)
						want["store.flat_persisted_hits"]++
					}
				}
			}
			if expOK {
				want["store.flat_hits"]++
			} else {
				want["store.flat_misses"]++
			}
			if ok != expOK || !bytes.Equal(got, exp) {
				t.Fatalf("step %d: Get(%d-byte key %.40q) = %q, %v; model %q, %v", step, len(k), k, got, ok, exp, expOK)
			}
		case op < 16:
			advance(anchor, k, []byte(fmt.Sprintf("v%d", step)))
		case op < 18:
			advance(anchor, k, nil)
		case op == 18:
			f.Advance(types.Hash{0xee}, anchor, map[string][]byte{k: []byte("replayed")})
		default:
			advance(types.Hash{0xee}, k, []byte(fmt.Sprintf("fork%d", step)))
		}
		if got := f.Counters(); !maps.Equal(got, want) {
			t.Fatalf("step %d: counters %v, model %v", step, got, want)
		}
	}
	if want["store.flat_persisted_hits"] == 0 || want["store.flat_resets"] == 0 {
		t.Fatalf("the mix never reached the store or a reset: %v", want)
	}
}
