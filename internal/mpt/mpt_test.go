package mpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

func newMemTrie(t *testing.T) *Trie {
	t.Helper()
	tr, err := New(kvstore.NewMem(), types.ZeroHash)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEmptyTrie(t *testing.T) {
	tr := newMemTrie(t)
	h, err := tr.Hash()
	if err != nil || !h.IsZero() {
		t.Fatalf("empty hash = %v, %v", h, err)
	}
	v, err := tr.Get([]byte("nope"))
	if err != nil || v != nil {
		t.Fatalf("get on empty = %v, %v", v, err)
	}
	if err := tr.Delete([]byte("nope")); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetOverwrite(t *testing.T) {
	tr := newMemTrie(t)
	must(t, tr.Put([]byte("key"), []byte("v1")))
	got, _ := tr.Get([]byte("key"))
	if string(got) != "v1" {
		t.Fatalf("got %q", got)
	}
	must(t, tr.Put([]byte("key"), []byte("v2")))
	got, _ = tr.Get([]byte("key"))
	if string(got) != "v2" {
		t.Fatalf("overwrite: got %q", got)
	}
}

func TestPrefixKeys(t *testing.T) {
	tr := newMemTrie(t)
	// Keys where one is a strict prefix of another exercise branch values.
	must(t, tr.Put([]byte("do"), []byte("verb")))
	must(t, tr.Put([]byte("dog"), []byte("animal")))
	must(t, tr.Put([]byte("doge"), []byte("coin")))
	for k, want := range map[string]string{"do": "verb", "dog": "animal", "doge": "coin"} {
		got, err := tr.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("get %q = %q, %v", k, got, err)
		}
	}
	must(t, tr.Delete([]byte("dog")))
	if v, _ := tr.Get([]byte("dog")); v != nil {
		t.Fatal("dog survived delete")
	}
	if v, _ := tr.Get([]byte("doge")); string(v) != "coin" {
		t.Fatal("doge lost after sibling delete")
	}
	if v, _ := tr.Get([]byte("do")); string(v) != "verb" {
		t.Fatal("do lost after child delete")
	}
}

func TestRootCanonicalAcrossInsertionOrder(t *testing.T) {
	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("account-%04d", i*7))
	}
	build := func(perm []int) types.Hash {
		tr := newMemTrie(t)
		for _, i := range perm {
			must(t, tr.Put(keys[i], []byte(fmt.Sprintf("balance-%d", i))))
		}
		h, err := tr.Hash()
		must(t, err)
		return h
	}
	base := make([]int, len(keys))
	for i := range base {
		base[i] = i
	}
	h1 := build(base)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(keys))
		if h2 := build(perm); h2 != h1 {
			t.Fatalf("root depends on insertion order: %v vs %v", h1, h2)
		}
	}
}

func TestDeleteRestoresPriorRoot(t *testing.T) {
	tr := newMemTrie(t)
	must(t, tr.Put([]byte("alpha"), []byte("1")))
	must(t, tr.Put([]byte("beta"), []byte("2")))
	h2, _ := tr.Hash()
	must(t, tr.Put([]byte("gamma"), []byte("3")))
	must(t, tr.Delete([]byte("gamma")))
	h2b, _ := tr.Hash()
	if h2 != h2b {
		t.Fatal("insert+delete did not restore root (non-canonical delete)")
	}
	must(t, tr.Delete([]byte("alpha")))
	must(t, tr.Delete([]byte("beta")))
	h0, _ := tr.Hash()
	if !h0.IsZero() {
		t.Fatal("deleting all keys should restore the zero root")
	}
}

func TestModelEquivalenceRandomOps(t *testing.T) {
	tr := newMemTrie(t)
	model := make(map[string][]byte)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("k%03d", rng.Intn(300)))
		switch rng.Intn(4) {
		case 0, 1: // put twice as often as delete
			v := []byte(fmt.Sprintf("v%d", i))
			must(t, tr.Put(k, v))
			model[string(k)] = v
		case 2:
			must(t, tr.Delete(k))
			delete(model, string(k))
		case 3:
			got, err := tr.Get(k)
			must(t, err)
			want := model[string(k)]
			if want == nil {
				if got != nil {
					t.Fatalf("op %d: ghost value for %s", i, k)
				}
			} else if !bytes.Equal(got, want) {
				t.Fatalf("op %d: get %s = %q want %q", i, k, got, want)
			}
		}
	}
	// Rebuild fresh from model: roots must match (canonical form).
	fresh := newMemTrie(t)
	for k, v := range model {
		must(t, fresh.Put([]byte(k), v))
	}
	h1, _ := tr.Hash()
	h2, _ := fresh.Hash()
	if h1 != h2 {
		t.Fatal("mutated trie root differs from freshly built trie with same content")
	}
}

func TestCommitAndReopen(t *testing.T) {
	store := kvstore.NewMem()
	tr, err := New(store, types.ZeroHash)
	must(t, err)
	for i := 0; i < 200; i++ {
		must(t, tr.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i))))
	}
	root, err := tr.Commit()
	must(t, err)
	if root.IsZero() {
		t.Fatal("zero root after commit")
	}

	re, err := New(store, root)
	must(t, err)
	for i := 0; i < 200; i++ {
		v, err := re.Get([]byte(fmt.Sprintf("key-%03d", i)))
		must(t, err)
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("reopened trie lost key %d: %q", i, v)
		}
	}
}

func TestHistoricalRootsRemainReadable(t *testing.T) {
	// The analytics workload reads account state at old block heights;
	// committed versions must stay intact as the trie evolves.
	store := kvstore.NewMem()
	tr, err := New(store, types.ZeroHash)
	must(t, err)
	var roots []types.Hash
	for ver := 0; ver < 5; ver++ {
		must(t, tr.Put([]byte("acct"), []byte(fmt.Sprintf("balance-%d", ver))))
		must(t, tr.Put([]byte(fmt.Sprintf("other-%d", ver)), []byte("x")))
		r, err := tr.Commit()
		must(t, err)
		roots = append(roots, r)
	}
	for ver, root := range roots {
		old, err := New(store, root)
		must(t, err)
		v, err := old.Get([]byte("acct"))
		must(t, err)
		if string(v) != fmt.Sprintf("balance-%d", ver) {
			t.Fatalf("version %d: got %q", ver, v)
		}
	}
}

func TestMutatingAfterCommitKeepsOldVersion(t *testing.T) {
	store := kvstore.NewMem()
	tr, _ := New(store, types.ZeroHash)
	must(t, tr.Put([]byte("a"), []byte("1")))
	must(t, tr.Put([]byte("ab"), []byte("2")))
	root1, err := tr.Commit()
	must(t, err)
	must(t, tr.Put([]byte("a"), []byte("changed")))
	must(t, tr.Delete([]byte("ab")))
	_, err = tr.Commit()
	must(t, err)

	old, err := New(store, root1)
	must(t, err)
	v, err := old.Get([]byte("a"))
	must(t, err)
	if string(v) != "1" {
		t.Fatalf("old version mutated: %q", v)
	}
	v, err = old.Get([]byte("ab"))
	must(t, err)
	if string(v) != "2" {
		t.Fatalf("old version lost key: %q", v)
	}
}

func TestIterate(t *testing.T) {
	tr := newMemTrie(t)
	want := map[string]string{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("user-%02d", i)
		v := fmt.Sprintf("data-%d", i)
		want[k] = v
		must(t, tr.Put([]byte(k), []byte(v)))
	}
	got := map[string]string{}
	var prev []byte
	must(t, tr.Iterate(func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("iteration out of order: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		got[string(k)] = string(v)
		return true
	}))
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: %q != %q", k, got[k], v)
		}
	}
}

func TestIterateEarlyStop(t *testing.T) {
	tr := newMemTrie(t)
	for i := 0; i < 10; i++ {
		must(t, tr.Put([]byte(fmt.Sprintf("%02d", i)), []byte("v")))
	}
	n := 0
	must(t, tr.Iterate(func(k, v []byte) bool { n++; return n < 4 }))
	if n != 4 {
		t.Fatalf("visited %d, want 4", n)
	}
}

func TestNodesWrittenGrowsWithDepth(t *testing.T) {
	// Write amplification: committing K keys persists more than K nodes.
	store := kvstore.NewMem()
	tr, _ := New(store, types.ZeroHash)
	const keys = 500
	for i := 0; i < keys; i++ {
		must(t, tr.Put([]byte(fmt.Sprintf("%08d", i)), []byte("v")))
	}
	_, err := tr.Commit()
	must(t, err)
	if tr.NodesWritten() <= keys {
		t.Fatalf("expected write amplification, wrote %d nodes for %d keys",
			tr.NodesWritten(), keys)
	}
}

func TestMissingNodeError(t *testing.T) {
	// A root pointing at an empty store must surface ErrNotFound.
	tr, err := New(kvstore.NewMem(), types.HashData([]byte("bogus")))
	must(t, err)
	if _, err := tr.Get([]byte("x")); err == nil {
		t.Fatal("expected resolution error")
	}
}

func TestInMemoryTrieCommitFails(t *testing.T) {
	tr, err := New(nil, types.ZeroHash)
	must(t, err)
	must(t, tr.Put([]byte("k"), []byte("v")))
	if _, err := tr.Commit(); err == nil {
		t.Fatal("commit without store should fail")
	}
	if _, err := tr.Hash(); err != nil {
		t.Fatalf("hash without store should work: %v", err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutAllocBudget: Put of a fresh key under a path this trie already
// dirtied costs one allocation, the new leaf, which carries its own
// copy of the 62-nibble path suffix; the key's nibbles are scratch.
func TestPutAllocBudget(t *testing.T) {
	tr := newMemTrie(t)
	key := func(hi, lo int) []byte {
		k := bytes.Repeat([]byte{0xab}, 32)
		k[0] = byte(hi<<4 | lo)
		return k
	}
	// Every top nibble gets a dirty branch with two leaves under it.
	for hi := 0; hi < 16; hi++ {
		must(t, tr.Put(key(hi, 0), []byte("v")))
		must(t, tr.Put(key(hi, 1), []byte("v")))
	}
	var fresh [][]byte
	for lo := 2; lo < 16; lo++ {
		for hi := 0; hi < 16; hi++ {
			fresh = append(fresh, key(hi, lo))
		}
	}
	value, i := []byte("v"), 0
	if a := testing.AllocsPerRun(100, func() {
		must(t, tr.Put(fresh[i], value))
		i++
	}); a != 1 {
		t.Fatalf("Put of a fresh key under a dirty path: %v allocations, want 1", a)
	}
	for _, k := range fresh[:i] {
		if got, _ := tr.Get(k); !bytes.Equal(got, value) {
			t.Fatalf("Get(%x) = %q", k, got)
		}
	}
}

// TestPutDoesNotKeepKey: Put expands its key into scratch, so neither a
// caller that rewrites the key afterwards nor the next Put changes a
// leaf already in the trie, whether its path is inline or, longer,
// copied beside it.
func TestPutDoesNotKeepKey(t *testing.T) {
	for _, n := range []int{4, 32, 40} {
		tr := newMemTrie(t)
		for i := 0; i < 64; i++ {
			k := bytes.Repeat([]byte{byte(i)}, n)
			must(t, tr.Put(k, []byte{byte(i)}))
			for j := range k {
				k[j] = 0xff
			}
		}
		for i := 0; i < 64; i++ {
			if got, _ := tr.Get(bytes.Repeat([]byte{byte(i)}, n)); !bytes.Equal(got, []byte{byte(i)}) {
				t.Fatalf("%d-byte key %d: Get = %x after later Puts", n, i, got)
			}
		}
	}
}
