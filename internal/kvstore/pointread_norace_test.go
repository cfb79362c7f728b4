//go:build !race

package kvstore

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunReadAllocBudget: 10 000 distinct run-served Gets of 100 B
// values allocate one read-arena chunk per 32 KiB of values and a fixed
// count besides, where a copy of its own per value made one per Get. The
// collector is off while they run: a collection empties sync.Pool, and
// the next Get allocates a region buffer. Not under the race detector:
// there sync.Pool drops a quarter of the buffers it is handed back.
func TestRunReadAllocBudget(t *testing.T) {
	s, err := OpenLSM(t.TempDir(), LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	// 40-byte keys, like a trie node's (see TestPointReadAllocBudget),
	// built before the count.
	keys := make([][]byte, 10_000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%036d", i))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Get(keys[0]) // the pooled region buffer
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		if v, ok, err := s.Get(k); err != nil || !ok || len(v) != len(val) {
			t.Fatalf("Get = %d B, %v, %v", len(v), ok, err)
		}
	}
	runtime.ReadMemStats(&after)
	// 30 allocations when written, the chunks alone, in most runs; a Get
	// that moves to another P takes that P's region buffer, 2 more.
	const fixed = 8
	bytes := len(keys) * len(val)
	n, budget := after.Mallocs-before.Mallocs, uint64(bytes/arenaChunk+fixed)
	t.Logf("%d allocations for %d run-served Gets of %d B; budget %d", n, len(keys), bytes, budget)
	if n > budget {
		t.Fatalf("%d allocations for %d run-served Gets of %d B; budget %d", n, len(keys), bytes, budget)
	}
}
