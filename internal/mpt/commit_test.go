package mpt

import (
	"bytes"
	"runtime"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// caches names the two configurations every lifecycle test runs under:
// a private trie that memoises what it resolves, and a shared node cache
// that Commit publishes into.
func caches() map[string]func() NodeCache {
	return map[string]func() NodeCache{
		"nocache": func() NodeCache { return nil },
		"cache":   func() NodeCache { return newMapCache() },
	}
}

// written runs fn and returns how many nodes tr persisted meanwhile.
func written(t *testing.T, tr *Trie, fn func()) uint64 {
	t.Helper()
	before := tr.NodesWritten()
	fn()
	if _, err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	return tr.NodesWritten() - before
}

// TestNodesWrittenExact: Commit persists the nodes created since the
// last Commit and nothing else. Before nodes carried their hash, every
// resolved node was re-encoded and re-persisted: the counts in the
// comments are what the previous commit wrote for the same steps.
func TestNodesWrittenExact(t *testing.T) {
	for name, newCache := range caches() {
		store := kvstore.NewMem()
		tr, root := seqTrie(t, store, newCache(), 1000)
		if n := tr.NodesWritten(); n != 1222 {
			t.Fatalf("%s: building wrote %d nodes, want 1222", name, n)
		}
		if n := written(t, tr, func() {}); n != 0 { // was 1222
			t.Fatalf("%s: idle re-commit wrote %d nodes, want 0", name, n)
		}

		reader, _ := NewWithCache(store, root, newCache())
		n := written(t, reader, func() {
			for i := 0; i < 100; i++ {
				if v, err := reader.Get(seqKey(i)); err != nil || !bytes.Equal(v, seqVal(i)) {
					t.Fatalf("%s: get %d = %q, %v", name, i, v, err)
				}
			}
		})
		if n != 0 { // was 124
			t.Fatalf("%s: 100 reads then commit wrote %d nodes, want 0", name, n)
		}

		// One overwrite persists its root-to-leaf path: 7 nodes for either
		// key on this trie. The second commit must not re-persist the clean
		// nodes the first left resolved (was 12).
		writer, _ := NewWithCache(store, root, newCache())
		if n := written(t, writer, func() { writer.Put(seqKey(500), []byte("x")) }); n != 7 {
			t.Fatalf("%s: first overwrite wrote %d nodes, want 7", name, n)
		}
		if n := written(t, writer, func() { writer.Put(seqKey(777), []byte("y")) }); n != 7 {
			t.Fatalf("%s: second overwrite wrote %d nodes, want 7", name, n)
		}
		// Two writes under one commit share the top of their paths, and a
		// node rewritten twice before the commit is persisted once.
		n = written(t, writer, func() {
			writer.Put(seqKey(500), []byte("x2"))
			writer.Put(seqKey(501), []byte("x3"))
			writer.Put(seqKey(500), []byte("x4"))
		})
		if n != 8 {
			t.Fatalf("%s: sibling overwrites wrote %d nodes, want 8", name, n)
		}
	}
}

// storedKeys counts the records in store.
func storedKeys(t *testing.T, store kvstore.Store) int {
	t.Helper()
	n := 0
	if err := store.Iterate(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestHashThenPutThenCommit: Hash may cache hashes in dirty nodes, but a
// cached hash is not a persisted node, and a mutation below it must
// invalidate it. Everything has to reach the store, and the root has to
// cover the late Put.
func TestHashThenPutThenCommit(t *testing.T) {
	for name, newCache := range caches() {
		store := kvstore.NewMem()
		tr, _ := NewWithCache(store, types.ZeroHash, newCache())
		for i := 0; i < 200; i++ {
			tr.Put(seqKey(i), seqVal(i))
		}
		before, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if storedKeys(t, store) != 0 || tr.NodesWritten() != 0 {
			t.Fatalf("%s: Hash persisted nodes", name)
		}
		tr.Put(seqKey(77), []byte("late"))
		root, err := tr.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if root == before {
			t.Fatalf("%s: stale cached hash survived the Put", name)
		}

		want, _ := New(kvstore.NewMem(), types.ZeroHash)
		for i := 0; i < 200; i++ {
			want.Put(seqKey(i), seqVal(i))
		}
		want.Put(seqKey(77), []byte("late"))
		if wantRoot, _ := want.Commit(); root != wantRoot {
			t.Fatalf("%s: root %s, from-scratch rebuild %s", name, root.Hex(), wantRoot.Hex())
		}
		if tr.NodesWritten() != want.NodesWritten() {
			t.Fatalf("%s: wrote %d nodes, rebuild wrote %d", name, tr.NodesWritten(), want.NodesWritten())
		}
		cold, _ := New(store, root)
		for i := 0; i < 200; i++ {
			wantV := seqVal(i)
			if i == 77 {
				wantV = []byte("late")
			}
			if v, err := cold.Get(seqKey(i)); err != nil || !bytes.Equal(v, wantV) {
				t.Fatalf("%s: cold get %d = %q, %v", name, i, v, err)
			}
		}
	}
}

// checkPublished asserts the invariant that lets tries share cached
// nodes without a lock: every node in the cache is clean, still encodes
// to the hash it was published under, and holds child hashes rather
// than resolved subtrees (nothing memoised into it, nothing left linked
// by Commit).
func checkPublished(t testing.TB, cache mapCache) {
	t.Helper()
	var scratch Trie
	for h, n := range cache {
		if m := n.meta(); !m.clean || !m.hashed || m.hash != h {
			t.Fatalf("cached node %s: meta %+v", h.Hex(), *m)
		}
		var dirty Node
		switch n := n.(type) {
		case *leafNode:
			dirty = &leafNode{path: n.path, value: n.value}
		case *extNode:
			if n.child.n != nil {
				t.Fatalf("cached extension %s links its child", h.Hex())
			}
			dirty = &extNode{path: n.path, child: n.child}
		case *branchNode:
			for i := range n.kids {
				if n.kids[i] != nil {
					t.Fatalf("cached branch %s links child %d", h.Hex(), i)
				}
			}
			dirty = &branchNode{value: n.value, enc: n.enc, cleared: n.cleared}
		}
		if got, _ := scratch.encode(dirty, false); got != h {
			t.Fatalf("cached node %s now encodes to %s", h.Hex(), got.Hex())
		}
	}
}

// TestPublishedNodesAreNeverWritten: with a shared cache, a trie opened
// at an old root keeps reading that version however far a writer that
// shares its cached nodes has moved on — the writer copies clean nodes,
// it never edits them.
func TestPublishedNodesAreNeverWritten(t *testing.T) {
	store, cache := kvstore.NewMem(), newMapCache()
	writer, root := seqTrie(t, store, cache, 300)
	old, _ := NewWithCache(store, root, cache)
	if v, _ := old.Get(seqKey(7)); !bytes.Equal(v, seqVal(7)) {
		t.Fatalf("get = %q", v)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 300; i += 3 {
			writer.Put(seqKey(i), []byte{byte(round)})
		}
		writer.Delete(seqKey(7))
		if _, err := writer.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if v, err := old.Get(seqKey(i)); err != nil || !bytes.Equal(v, seqVal(i)) {
			t.Fatalf("old version: get %d = %q, %v", i, v, err)
		}
	}
	if h, _ := old.Hash(); h != root {
		t.Fatalf("old version's root moved to %s", h.Hex())
	}
	checkPublished(t, cache)
}

// TestDecodeBranchAllocs pins the cache-miss cost: a full 16-child
// branch decodes in O(1) allocations, not one boxed hash per child, and
// in at most 352 bytes: the node reads its child hashes from the
// encoding it keeps (copied into its slots they made it 832 bytes, an
// 896-byte size class).
func TestDecodeBranchAllocs(t *testing.T) {
	enc := appendUint32(nil, kindBranch)
	for i := 0; i < 16; i++ {
		h := types.HashData([]byte{byte(i)})
		enc = append(enc, h[:]...)
	}
	enc = types.AppendBytes(append(enc, 1), []byte("value"))
	n, err := decodeNode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := n.(*branchNode)
	if b.storedHash(15) != types.HashData([]byte{15}) || string(b.value) != "value" {
		t.Fatalf("decoded branch wrong: %x %q", b.storedHash(15), b.value)
	}
	if a := testing.AllocsPerRun(100, func() { decodeNode(enc) }); a > 2 {
		t.Fatalf("decoding a 16-child branch: %v allocations, want <= 2", a)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decodeNode(enc)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 352 {
		t.Fatalf("decoding a 16-child branch: %d bytes, want <= 352", b)
	}
}

// TestDecodeRejectsTruncatedNodes: a torn or corrupt node record is an
// error, never a panic or a node with missing children.
func TestDecodeRejectsTruncatedNodes(t *testing.T) {
	store := kvstore.NewMem()
	seqTrie(t, store, nil, 40)
	store.Iterate([]byte("t:"), []byte("t;"), func(_, enc []byte) bool {
		if _, err := decodeNode(enc); err != nil {
			t.Fatalf("intact node: %v", err)
		}
		// A branch without a value ends in its flag byte and a leaf in its
		// value, so every strict prefix is short of something.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeNode(enc[:cut]); err == nil {
				t.Fatalf("node of %d bytes cut to %d decoded", len(enc), cut)
			}
		}
		return true
	})
}
