// Package mpt implements a Patricia-Merkle trie, the authenticated state
// structure used by Ethereum and Parity ("Ethereum and Parity employ
// Patricia-Merkle tree that supports efficient update and search
// operations"). Keys are arbitrary byte strings; the trie is canonical:
// the root hash depends only on the key/value set, not insertion order.
//
// Nodes are content-addressed. Commit persists every dirty node to a
// backing key-value store under its hash, which (a) lets a trie be
// reopened at any historical root for block-at-height state queries, and
// (b) reproduces the write amplification that the paper's IOHeavy
// experiment observes for Ethereum and Parity relative to Hyperledger's
// plain key-value layout.
//
// Node lifecycle. A node is dirty from the moment Put or Delete creates
// it until the Commit that persists it, and clean from then on; a node
// decoded from the store is born clean. Dirty nodes are reachable only
// from the trie that created them, so that trie mutates them in place.
// A clean node's content is never written again — Commit hands the very
// node object to the shared NodeCache, where other tries read it without
// a lock — so Put and Delete copy a clean node before changing it, and
// Commit skips it: a node version is hashed and persisted exactly once.
package mpt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// ErrNotFound reports a missing node during resolution, indicating a
// truncated or corrupted node store.
var ErrNotFound = errors.New("mpt: node not found")

// Node is a decoded trie node, opaque outside this package: a NodeCache
// stores and returns Nodes but cannot look inside or build one.
type Node interface{ meta() *nodeMeta }

// nodeMeta is the lifecycle state every node carries.
type nodeMeta struct {
	hash   types.Hash // content hash, valid while hashed
	hashed bool       // cleared by every in-place mutation
	clean  bool       // persisted under hash: immutable, Commit skips it
}

func (m *nodeMeta) meta() *nodeMeta { return m }

// ref is an extension's or the root's child slot: the child itself once
// resolved, otherwise the hash it is persisted under (zero: no child).
// h is meaningful only while n is nil.
type ref struct {
	n Node
	h types.Hash
}

type (
	// leafNode holds the tail of a key path and its value.
	leafNode struct {
		nodeMeta
		path  []byte // nibbles
		value []byte
	}
	// extNode compresses a shared path segment above a branch.
	extNode struct {
		nodeMeta
		path  []byte // nibbles, non-empty
		child ref
	}
	// branchNode fans out on the next nibble; value holds a terminated
	// key ending exactly here. Each child's hash lives in one place: in
	// the child itself once resolved (kids[i]), otherwise in enc, the
	// branch's persisted encoding, which the node shares with the store
	// and never writes into. cleared marks the slots a Delete emptied
	// since enc was written; a branch with no enc (built by Put) has
	// every child resolved.
	branchNode struct {
		nodeMeta
		kids    [16]Node
		value   []byte
		enc     []byte
		cleared uint16
	}
)

// storedHash returns the hash of slot i as enc records it, zero when
// the slot is empty or cleared; it is meaningful only while kids[i] is
// nil.
func (b *branchNode) storedHash(i int) (h types.Hash) {
	if b.enc != nil && b.cleared&(1<<i) == 0 {
		h = types.Hash(b.enc[4+i*types.HashSize:])
	}
	return h
}

// NodeCache caches decoded trie nodes by content hash. Because a clean
// node is immutable under its hash, a shared cache is valid across every
// trie version simultaneously — this is how geth's state cache can serve
// both head and historical reads. Implementations must be safe for
// concurrent use when tries on several goroutines share them.
type NodeCache interface {
	Get(h types.Hash) (Node, bool)
	Put(h types.Hash, n Node)
}

// Trie is a mutable Patricia-Merkle trie. It is not safe for concurrent
// mutation; callers serialize access (block execution is single-threaded
// on every platform in the paper).
//
// Resolved children are memoised only into nodes private to this trie:
// dirty ones, or any node when no NodeCache is configured (nothing is
// shared then, and the trie keeps what it resolved, like Parity's
// in-memory state). Under a NodeCache a clean node may be visible to
// other tries, so it stays as decoded, re-resolution is a cache hit,
// and Commit unlinks the children it persists so the cache's capacity,
// not the trie's history, bounds resident nodes.
type Trie struct {
	store kvstore.Store // nil for a purely in-memory trie
	cache NodeCache     // nil disables node caching
	root  ref

	// nodesWritten counts persisted nodes — each node version once —
	// exposing the trie's write amplification to the IOHeavy experiment.
	nodesWritten uint64

	// Reusable scratch for the hot paths (the trie is already
	// single-writer, see the type comment): encBuf holds one node's
	// encoding during Commit/Hash — children are hashed before the
	// parent's bytes are laid down, so one buffer serves every level —
	// keyBuf the store key of the node being persisted, and nibBuf the
	// nibble expansion of the key in hand (Get, Put, Delete: a node Put
	// creates copies the part of the path it keeps, see newLeaf).
	encBuf []byte
	keyBuf []byte
	nibBuf []byte
}

// New opens a trie over store rooted at root. A zero root yields an empty
// trie. store may be nil for an in-memory trie (then Commit fails).
func New(store kvstore.Store, root types.Hash) (*Trie, error) {
	return NewWithCache(store, root, nil)
}

// NewWithCache opens a trie with a shared node cache in front of the
// store.
func NewWithCache(store kvstore.Store, root types.Hash, cache NodeCache) (*Trie, error) {
	if !root.IsZero() && store == nil {
		return nil, errors.New("mpt: non-zero root requires a store")
	}
	return &Trie{store: store, cache: cache, root: ref{h: root}}, nil
}

// Reset reopens the trie at root as New would but keeps its scratch
// buffers: every node it resolved or created, committed or not, is
// dropped.
func (t *Trie) Reset(root types.Hash) { t.root = ref{h: root} }

// scratchNibbles expands key into the trie's reusable nibble buffer:
// the result is valid until the next call, and no node keeps it.
func (t *Trie) scratchNibbles(key []byte) []byte {
	n := len(key) * 2
	if cap(t.nibBuf) < n {
		t.nibBuf = make([]byte, n)
	}
	return expandNibbles(t.nibBuf[:n], key)
}

func expandNibbles(out, key []byte) []byte {
	for i, b := range key {
		out[i*2] = b >> 4
		out[i*2+1] = b & 0x0f
	}
	return out
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// load returns the child in slot r of owner (nil for the root slot),
// resolving it on demand; the already-resolved case inlines into the
// walks.
func (t *Trie) load(owner *nodeMeta, r *ref) (Node, error) {
	if r.n != nil {
		return r.n, nil
	}
	return t.loadSlow(owner, r)
}

// loadSlow resolves slot r, if it holds a child at all, and memoises the
// node into it only when owner is private to this trie.
func (t *Trie) loadSlow(owner *nodeMeta, r *ref) (Node, error) {
	n, err := t.resolve(r.h)
	if t.private(owner) {
		r.n = n
	}
	return n, err
}

// kid is load for slot i of branch b.
func (t *Trie) kid(b *branchNode, i byte) (Node, error) {
	if n := b.kids[i]; n != nil {
		return n, nil
	}
	n, err := t.resolve(b.storedHash(int(i)))
	if t.private(&b.nodeMeta) {
		b.kids[i] = n
	}
	return n, err
}

// private reports whether a child resolved into a slot of owner (nil:
// the root slot) may be memoised there (see the Trie comment).
func (t *Trie) private(owner *nodeMeta) bool {
	return t.cache == nil || owner == nil || !owner.clean
}

// Get returns the value stored at key, or nil if absent.
func (t *Trie) Get(key []byte) ([]byte, error) {
	path := t.scratchNibbles(key)
	n, err := t.load(nil, &t.root)
	for err == nil {
		switch cur := n.(type) {
		case nil:
			return nil, nil
		case *leafNode:
			if len(path) == len(cur.path) && commonPrefix(path, cur.path) == len(path) {
				return cur.value, nil
			}
			return nil, nil
		case *extNode:
			if commonPrefix(path, cur.path) < len(cur.path) {
				return nil, nil
			}
			path = path[len(cur.path):]
			n, err = t.load(&cur.nodeMeta, &cur.child)
		case *branchNode:
			if len(path) == 0 {
				return cur.value, nil
			}
			n, err = t.kid(cur, path[0])
			path = path[1:]
		}
	}
	return nil, err
}

// Put inserts or overwrites key=value and keeps value itself: the caller
// gives the slice up and never writes into it again (its node may be
// shared through the NodeCache). An empty value, nil included, is stored
// as empty — a branch's encoding tells that from none; Delete removes.
func (t *Trie) Put(key, value []byte) error {
	if value == nil {
		value = []byte{}
	}
	root, err := t.load(nil, &t.root)
	if err != nil {
		return err
	}
	newRoot, err := t.insert(root, t.scratchNibbles(key), value)
	if err != nil {
		return err
	}
	t.root = ref{n: newRoot}
	return nil
}

// ownExt and ownBranch return n ready for mutation: n itself with its
// cached hash cleared when this trie created it since its last Commit,
// a dirty copy when n is clean. A branch's copy shares n's encoding,
// which is immutable, for the slots it does not change.
func ownExt(n *extNode) *extNode {
	if n.clean {
		return &extNode{path: n.path, child: n.child}
	}
	n.hashed = false
	return n
}

func ownBranch(n *branchNode) *branchNode {
	if n.clean {
		return &branchNode{kids: n.kids, value: n.value, enc: n.enc, cleared: n.cleared}
	}
	n.hashed = false
	return n
}

// insert puts (path, value) under n. path is scratch (Put's nibBuf):
// a node that keeps part of it copies that part (newLeaf), and a path
// equal to one n already holds is taken from n instead.
func (t *Trie) insert(n Node, path []byte, value []byte) (Node, error) {
	switch n := n.(type) {
	case nil:
		return newLeaf(path, value), nil
	case *leafNode:
		cp := commonPrefix(path, n.path)
		if cp == len(path) && cp == len(n.path) {
			if n.clean {
				return &leafNode{path: n.path, value: value}, nil
			}
			n.value, n.hashed = value, false
			return n, nil
		}
		branch := &branchNode{}
		branch.attach(n.path[cp:], n.value, false)
		branch.attach(path[cp:], value, true)
		return extend(n.path[:cp], branch), nil
	case *extNode:
		cp := commonPrefix(path, n.path)
		if cp == len(n.path) {
			child, err := t.load(&n.nodeMeta, &n.child)
			if err != nil {
				return nil, err
			}
			if child, err = t.insert(child, path[cp:], value); err != nil {
				return nil, err
			}
			n = ownExt(n)
			n.child = ref{n: child}
			return n, nil
		}
		// Split the extension at cp: its remainder goes under the first
		// nibble past the split. The new branch has no encoding to hold a
		// hash in, so a child it takes directly is resolved first.
		branch := &branchNode{}
		rem := n.path[cp:]
		if len(rem) == 1 {
			child, err := t.load(&n.nodeMeta, &n.child)
			if err != nil {
				return nil, err
			}
			branch.kids[rem[0]] = child
		} else {
			branch.kids[rem[0]] = &extNode{path: rem[1:], child: n.child}
		}
		branch.attach(path[cp:], value, true)
		return extend(n.path[:cp], branch), nil
	case *branchNode:
		if len(path) == 0 {
			n = ownBranch(n)
			n.value = value
			return n, nil
		}
		child, err := t.kid(n, path[0])
		if err != nil {
			return nil, err
		}
		if child, err = t.insert(child, path[1:], value); err != nil {
			return nil, err
		}
		n = ownBranch(n)
		n.kids[path[0]] = child
		return n, nil
	default:
		return nil, fmt.Errorf("mpt: unknown node type %T", n)
	}
}

// extend puts child under an extension carrying path, or returns it bare
// when there is no shared path to carry.
func extend(path []byte, child Node) Node {
	if len(path) == 0 {
		return child
	}
	return &extNode{path: path, child: ref{n: child}}
}

// attach places (path, value) directly under a fresh branch node; a
// leaf copies its path when it is scratch, and shares it when it is an
// existing node's (paths are never written in place: concat copies).
func (b *branchNode) attach(path []byte, value []byte, scratch bool) {
	if len(path) == 0 {
		b.value = value
		return
	}
	var leaf *leafNode
	if scratch {
		leaf = newLeaf(path[1:], value)
	} else {
		leaf = &leafNode{path: path[1:], value: value}
	}
	b.kids[path[0]] = leaf
}

// inlineLeaf is a leaf that carries its path in its own allocation: a
// path of up to 64 nibbles, a 32-byte key's (the size of state.DB's
// keyArr, which fits every registry contract's keys), costs one
// allocation where a leaf and its path used to cost two.
type inlineLeaf struct {
	leafNode
	buf [64]byte
}

// newLeaf returns a leaf holding its own copy of path; a path too long
// for the inline storage is a plain copy.
func newLeaf(path, value []byte) *leafNode {
	if len(path) > len(inlineLeaf{}.buf) {
		return &leafNode{path: append([]byte(nil), path...), value: value}
	}
	l := &inlineLeaf{}
	l.path, l.value = append(l.buf[:0:len(path)], path...), value
	return &l.leafNode
}

// Delete removes key from the trie; deleting an absent key is a no-op.
func (t *Trie) Delete(key []byte) error {
	root, err := t.load(nil, &t.root)
	if err != nil {
		return err
	}
	newRoot, changed, err := t.remove(root, t.scratchNibbles(key))
	if err != nil || !changed {
		return err
	}
	t.root = ref{n: newRoot}
	return nil
}

// remove returns n's replacement and whether anything changed; an
// unchanged subtree is returned as is, so a miss copies nothing.
func (t *Trie) remove(n Node, path []byte) (Node, bool, error) {
	switch n := n.(type) {
	case nil:
		return nil, false, nil
	case *leafNode:
		if len(path) == len(n.path) && commonPrefix(path, n.path) == len(path) {
			return nil, true, nil
		}
		return n, false, nil
	case *extNode:
		cp := commonPrefix(path, n.path)
		if cp < len(n.path) {
			return n, false, nil
		}
		child, err := t.load(&n.nodeMeta, &n.child)
		if err != nil {
			return n, false, err
		}
		child, changed, err := t.remove(child, path[cp:])
		if err != nil || !changed {
			return n, changed, err
		}
		if child == nil {
			return nil, true, nil
		}
		// The child was a branch; what is left of it decides the shape.
		return prepend(n.path, child), true, nil
	case *branchNode:
		if len(path) == 0 {
			if n.value == nil {
				return n, false, nil
			}
			n = ownBranch(n)
			n.value = nil
		} else {
			child, err := t.kid(n, path[0])
			if err != nil {
				return n, false, err
			}
			child, changed, err := t.remove(child, path[1:])
			if err != nil || !changed {
				return n, changed, err
			}
			n = ownBranch(n)
			if n.kids[path[0]] = child; child == nil {
				n.cleared |= 1 << path[0]
			}
		}
		collapsed, err := t.collapseBranch(n)
		return collapsed, true, err
	default:
		return nil, false, fmt.Errorf("mpt: unknown node type %T", n)
	}
}

// collapseBranch simplifies a (dirty) branch left with zero or one
// descendants.
func (t *Trie) collapseBranch(b *branchNode) (Node, error) {
	live := -1
	count := 0
	for i := range b.kids {
		if b.kids[i] != nil || !b.storedHash(i).IsZero() {
			live = i
			count++
		}
	}
	if count == 0 {
		if b.value == nil {
			return nil, nil
		}
		return &leafNode{path: nil, value: b.value}, nil
	}
	if count == 1 && b.value == nil {
		child, err := t.kid(b, byte(live))
		if err != nil {
			return nil, err
		}
		return prepend([]byte{byte(live)}, child), nil
	}
	return b, nil
}

// prepend returns the node that puts prefix in front of child: a leaf
// or extension absorbs the prefix into its own path, a branch goes under
// a new extension.
func prepend(prefix []byte, child Node) Node {
	switch c := child.(type) {
	case *leafNode:
		return &leafNode{path: concat(prefix, c.path), value: c.value}
	case *extNode:
		return &extNode{path: concat(prefix, c.path), child: c.child}
	default:
		return &extNode{path: prefix, child: ref{n: child}}
	}
}

func concat(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// Node encoding, the hashing preimage (all integers little-endian):
//
//	branch  kind=0(4) 16 x childHash(32, zero = none) hasValue(1) [vlen(4) value]
//	ext     kind=1(4) plen(4) path childHash(32)
//	leaf    kind=2(4) plen(4) path vlen(4) value
const (
	kindBranch = 0
	kindExt    = 1
	kindLeaf   = 2
)

// encode returns n's content hash, computing it — and, when write is
// set, persisting n — only if that has not happened for this version of
// the node: a clean node returns at once, so Commit costs O(dirty
// nodes), and Hash never repeats work either. Children are hashed
// before any of the parent's bytes are laid down, so the single
// reusable encBuf serves every recursion level in turn.
//
// Under a node cache a persisted branch is about to be published, and
// published nodes hold hashes, not subtrees: it takes the record the
// store now holds as its enc and unlinks its children. The read-back
// costs no allocation on either engine (a store's Get result is the
// stored record, shared and immutable).
func (t *Trie) encode(n Node, write bool) (types.Hash, error) {
	m := n.meta()
	if m.clean || (m.hashed && !write) {
		return m.hash, nil
	}
	var buf []byte
	switch n := n.(type) {
	case *leafNode:
		buf = appendUint32(t.encBuf[:0], kindLeaf)
		buf = types.AppendBytes(buf, n.path)
		buf = types.AppendBytes(buf, n.value)
	case *extNode:
		if err := t.encodeChild(&n.child, write); err != nil {
			return types.ZeroHash, err
		}
		buf = appendUint32(t.encBuf[:0], kindExt)
		buf = types.AppendBytes(buf, n.path)
		buf = append(buf, n.child.h[:]...)
	case *branchNode:
		for _, k := range n.kids {
			if k == nil {
				continue
			}
			if _, err := t.encode(k, write); err != nil {
				return types.ZeroHash, err
			}
		}
		buf = appendUint32(t.encBuf[:0], kindBranch)
		for i, k := range n.kids {
			h := n.storedHash(i)
			if k != nil {
				h = k.meta().hash
			}
			buf = append(buf, h[:]...)
		}
		if n.value != nil {
			buf = append(buf, 1)
			buf = types.AppendBytes(buf, n.value)
		} else {
			buf = append(buf, 0)
		}
	}
	t.encBuf = buf

	m.hash, m.hashed = types.HashData(buf), true
	if write {
		key := t.nodeKey(m.hash)
		if err := t.store.Put(key, buf); err != nil {
			return types.ZeroHash, err
		}
		t.nodesWritten++
		m.clean = true
		if t.cache != nil {
			if b, ok := n.(*branchNode); ok {
				enc, ok, err := t.store.Get(key)
				if err == nil && !ok {
					err = ErrNotFound
				}
				if err != nil {
					return types.ZeroHash, fmt.Errorf("mpt: reading back node %s: %w", m.hash.Hex(), err)
				}
				b.kids, b.enc, b.cleared = [16]Node{}, enc, 0
			}
			t.cache.Put(m.hash, n)
		}
	}
	return m.hash, nil
}

// encodeChild brings slot r's hash up to date with its resolved child.
// Under a node cache a persisted child is then unlinked: its parent is
// about to be published, and published nodes hold hashes, not subtrees.
func (t *Trie) encodeChild(r *ref, write bool) error {
	if r.n == nil {
		return nil
	}
	h, err := t.encode(r.n, write)
	if err != nil {
		return err
	}
	r.h = h
	if write && t.cache != nil {
		r.n = nil
	}
	return nil
}

// appendUint32 appends a node's kind tag; paths and values follow it in
// types.AppendBytes' length-prefixed little-endian layout.
func appendUint32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// Hash computes the root hash without persisting anything. It may leave
// hashes cached in dirty nodes but never marks one persisted.
func (t *Trie) Hash() (types.Hash, error) {
	err := t.encodeChild(&t.root, false)
	return t.root.h, err
}

// Commit persists every node created since the last Commit and returns
// the root hash. The trie remains usable afterwards.
func (t *Trie) Commit() (types.Hash, error) {
	if t.store == nil {
		return types.ZeroHash, errors.New("mpt: commit without store")
	}
	err := t.encodeChild(&t.root, true)
	return t.root.h, err
}

// NodesWritten reports how many trie nodes have been persisted, a direct
// measure of write amplification: every node version counts once, and
// nodes that were only read never count.
func (t *Trie) NodesWritten() uint64 { return t.nodesWritten }

// nodeKey builds the store key for a node hash in the trie's reusable
// key scratch (both storage engines copy their key argument).
func (t *Trie) nodeKey(h types.Hash) []byte {
	if t.keyBuf == nil {
		t.keyBuf = make([]byte, 0, 2+types.HashSize)
	}
	k := append(t.keyBuf[:0], 't', ':')
	k = append(k, h[:]...)
	t.keyBuf = k
	return k
}

// resolve returns the clean node persisted under h (none for a zero h):
// the shared object from the node cache when it is resident, else a
// fresh decode that is published to the cache for every later trie.
func (t *Trie) resolve(h types.Hash) (Node, error) {
	if h.IsZero() {
		return nil, nil
	}
	if t.store == nil {
		return nil, ErrNotFound
	}
	if t.cache != nil {
		if n, ok := t.cache.Get(h); ok {
			return n, nil
		}
	}
	enc, ok, err := t.store.Get(t.nodeKey(h))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h.Hex())
	}
	n, err := decodeNode(enc)
	if err != nil {
		return nil, err
	}
	*n.meta() = nodeMeta{hash: h, hashed: true, clean: true}
	if t.cache != nil {
		t.cache.Put(h, n)
	}
	return n, nil
}

// decodeNode builds the node enc describes in one allocation whatever
// its fan-out: a branch keeps enc itself, where its child hashes are,
// and paths, values and an extension's child hash alias or copy out of
// it. A store's Get result is shared and immutable (kvstore.Store), so
// the node may keep it and must never write into it.
func decodeNode(node []byte) (Node, error) {
	if len(node) < 4 {
		return nil, fmt.Errorf("mpt: node: %w", types.ErrTruncated)
	}
	kind, enc := binary.LittleEndian.Uint32(node), node[4:]
	var ok bool
	switch kind {
	case kindLeaf:
		n := &leafNode{}
		if n.path, enc, ok = cutBytes(enc); ok {
			n.value, _, ok = cutBytes(enc)
		}
		if !ok {
			return nil, fmt.Errorf("mpt: leaf node: %w", types.ErrTruncated)
		}
		return n, nil
	case kindExt:
		n := &extNode{}
		if n.path, enc, ok = cutBytes(enc); !ok || len(enc) < types.HashSize {
			return nil, fmt.Errorf("mpt: extension node: %w", types.ErrTruncated)
		}
		copy(n.child.h[:], enc)
		return n, nil
	case kindBranch:
		if len(enc) < 16*types.HashSize+1 {
			return nil, fmt.Errorf("mpt: branch node: %w", types.ErrTruncated)
		}
		n := &branchNode{enc: node}
		if enc = enc[16*types.HashSize:]; enc[0] != 0 {
			if n.value, _, ok = cutBytes(enc[1:]); !ok {
				return nil, fmt.Errorf("mpt: branch node value: %w", types.ErrTruncated)
			}
		}
		return n, nil
	default:
		return nil, fmt.Errorf("mpt: bad node kind %d", kind)
	}
}

// cutBytes splits a length-prefixed byte string off the front of enc.
func cutBytes(enc []byte) (b, rest []byte, ok bool) {
	if len(enc) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(enc))
	if n < 0 || len(enc)-4 < n {
		return nil, nil, false
	}
	return enc[4 : 4+n : 4+n], enc[4+n:], true
}

// Iterate walks all key/value pairs in nibble order. Keys are
// reconstructed from paths; only byte-aligned keys (even nibble count)
// are produced, which is all this repository ever stores.
func (t *Trie) Iterate(fn func(key, value []byte) bool) error {
	root, err := t.load(nil, &t.root)
	if err == nil {
		_, err = t.walk(root, nil, fn)
	}
	return err
}

func (t *Trie) walk(n Node, prefix []byte, fn func(k, v []byte) bool) (bool, error) {
	switch n := n.(type) {
	case nil:
		return true, nil
	case *leafNode:
		return emit(concat(prefix, n.path), n.value, fn), nil
	case *extNode:
		child, err := t.load(&n.nodeMeta, &n.child)
		if err != nil {
			return false, err
		}
		return t.walk(child, concat(prefix, n.path), fn)
	case *branchNode:
		if n.value != nil {
			if !emit(prefix, n.value, fn) {
				return false, nil
			}
		}
		for i := range n.kids {
			child, err := t.kid(n, byte(i))
			if err != nil {
				return false, err
			}
			if child == nil {
				continue
			}
			cont, err := t.walk(child, concat(prefix, []byte{byte(i)}), fn)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("mpt: unknown node type %T", n)
	}
}

func emit(nibbles []byte, value []byte, fn func(k, v []byte) bool) bool {
	if len(nibbles)%2 != 0 {
		return true // non-byte-aligned key: skip
	}
	key := make([]byte, len(nibbles)/2)
	for i := range key {
		key[i] = nibbles[i*2]<<4 | nibbles[i*2+1]
	}
	return fn(key, value)
}
