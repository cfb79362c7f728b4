package lru

import (
	"fmt"
	"testing"
)

func TestBasicGetPut(t *testing.T) {
	c := New[string, []byte](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []byte("1"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	c.Put("a", []byte("2"))
	if v, _ := c.Get("a"); string(v) != "2" {
		t.Fatal("update failed")
	}
	if len(c.items) != 1 {
		t.Fatalf("len = %d", len(c.items))
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[string, []byte](2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a") // refresh a; b becomes LRU
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestRemove(t *testing.T) {
	c := New[string, []byte](4)
	c.Put("a", []byte("1"))
	c.Remove("a")
	c.Remove("missing") // no-op
	if _, ok := c.Get("a"); ok {
		t.Fatal("removed key still present")
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New[string, []byte](0)
	c.Put("a", []byte("1"))
	if len(c.items) != 0 {
		t.Fatal("zero-cap cache stored an entry")
	}
}

// TestClear: a cleared cache holds nothing and then fills and evicts as a
// new one would.
func TestClear(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Clear()
	if _, ok := c.Get(1); ok || len(c.items) != 0 {
		t.Fatalf("len = %d after Clear", len(c.items))
	}
	for k := 3; k <= 5; k++ {
		c.Put(k, k) // 5 evicts 3
	}
	if _, ok := c.Get(3); ok || len(c.items) != 2 {
		t.Fatalf("len = %d; 3 should have been evicted", len(c.items))
	}
	if v, ok := c.Get(4); !ok || v != 4 {
		t.Fatalf("get 4 = %d, %v", v, ok)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New[string, []byte](16)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
		if len(c.items) > 16 {
			t.Fatalf("cache grew to %d", len(c.items))
		}
	}
}

func TestEvictionRecyclesInRecencyOrder(t *testing.T) {
	c := New[int, int](3)
	for i := 0; i < 3; i++ {
		c.Put(i, i)
	}
	c.Put(0, 10) // refresh by Put: 1 is now the eviction candidate
	c.Put(3, 3)
	c.Put(4, 4) // evicts 2
	for k, want := range map[int]int{0: 10, 3: 3, 4: 4} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("get %d = %d, %v", k, v, ok)
		}
	}
	for _, k := range []int{1, 2} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%d should have been evicted", k)
		}
	}
	c.Remove(3)
	c.Put(5, 5) // room again: nothing is evicted
	if _, ok := c.Get(0); !ok || len(c.items) != 3 {
		t.Fatalf("len = %d after remove and put", len(c.items))
	}
}

// TestPutAtCapacityAllocs: a full cache recycles the evicted entry for
// the incoming key, so a Put costs the cache nothing (the rare bucket
// the map itself adds rounds to zero).
func TestPutAtCapacityAllocs(t *testing.T) {
	c := New[[32]byte, *int](256)
	var k [32]byte
	next := func() [32]byte {
		for i := 0; ; i++ {
			if k[i]++; k[i] != 0 {
				return k
			}
		}
	}
	for i := 0; i < 256; i++ {
		c.Put(next(), nil)
	}
	if a := testing.AllocsPerRun(1000, func() { c.Put(next(), nil) }); a != 0 {
		t.Fatalf("Put at capacity: %v allocations per call, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { c.Get(k) }); a != 0 {
		t.Fatalf("Get hit: %v allocations per call, want 0", a)
	}
}

func BenchmarkPutAtCapacity(b *testing.B) {
	c := New[uint64, []byte](4096)
	v := make([]byte, 100)
	for i := uint64(0); i < 4096; i++ {
		c.Put(i, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(4096+uint64(i), v)
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New[uint64, []byte](4096)
	v := make([]byte, 100)
	for i := uint64(0); i < 4096; i++ {
		c.Put(i, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(uint64(i) % 4096); !ok {
			b.Fatal("miss")
		}
	}
}
