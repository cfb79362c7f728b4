package mpt

import (
	"fmt"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// The MPT-vs-BMT benchmarks (see also internal/bmt) underlie the IOHeavy
// data-model comparison: the trie pays multi-node paths per write, the
// bucket tree one record. All benches report allocations — the trie
// commit path is the allocation hot spot of every geth-lineage preset
// (Ethereum, Quorum, Sharded commit a trie per block), tracked by
// BenchmarkTrieCommitAllocs below.

func BenchmarkTriePut(b *testing.B) {
	tr, _ := New(kvstore.NewMem(), types.ZeroHash)
	val := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

func BenchmarkTrieGet(b *testing.B) {
	tr, _ := New(kvstore.NewMem(), types.ZeroHash)
	const keys = 10_000
	for i := 0; i < keys; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%09d", i)), make([]byte, 100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get([]byte(fmt.Sprintf("key-%09d", i%keys)))
	}
}

func BenchmarkTrieCommit1k(b *testing.B) {
	store := kvstore.NewMem()
	tr, _ := New(store, types.ZeroHash)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 1000; j++ {
			tr.Put([]byte(fmt.Sprintf("key-%d-%d", i, j)), make([]byte, 100))
		}
		b.StartTimer()
		if _, err := tr.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrieCommitAllocs is the allocation-counting benchmark of the
// encode/Commit hot path in isolation: 1000 dirty keys per commit, no
// node cache, reporting allocations per committed trie node so the
// buffer-reuse trajectory (encoder, encode buffer, store key) is
// visible in BENCH_ci.json across PRs.
func BenchmarkTrieCommitAllocs(b *testing.B) {
	store := kvstore.NewMem()
	tr, _ := New(store, types.ZeroHash)
	var nodes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 1000; j++ {
			tr.Put([]byte(fmt.Sprintf("key-%d-%d", i, j)), make([]byte, 100))
		}
		before := tr.NodesWritten()
		b.StartTimer()
		if _, err := tr.Commit(); err != nil {
			b.Fatal(err)
		}
		nodes += tr.NodesWritten() - before
	}
	if nodes > 0 {
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/commit")
	}
}

// BenchmarkTrieCommitCached is the same commit under a shared node
// cache (the geth-lineage production configuration): Commit publishes
// the node objects it persisted, so the cache costs the write path no
// copy — only whatever the cache itself allocates per entry.
func BenchmarkTrieCommitCached(b *testing.B) {
	store := kvstore.NewMem()
	tr, _ := NewWithCache(store, types.ZeroHash, newMapCache())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 1000; j++ {
			tr.Put([]byte(fmt.Sprintf("key-%d-%d", i, j)), make([]byte, 100))
		}
		b.StartTimer()
		if _, err := tr.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// mapCache is a minimal unbounded NodeCache for benchmarks and
// single-goroutine tests.
type mapCache map[types.Hash]Node

func newMapCache() mapCache { return make(mapCache) }

func (c mapCache) Get(h types.Hash) (Node, bool) { n, ok := c[h]; return n, ok }
func (c mapCache) Put(h types.Hash, n Node)      { c[h] = n }
