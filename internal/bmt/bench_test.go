package bmt

import (
	"fmt"
	"testing"

	"blockbench/internal/kvstore"
)

func BenchmarkBucketPut(b *testing.B) {
	tr, _ := New(kvstore.NewMem(), Options{})
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

func BenchmarkBucketGet(b *testing.B) {
	tr, _ := New(kvstore.NewMem(), Options{})
	const keys = 10_000
	for i := 0; i < keys; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%09d", i)), make([]byte, 100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get([]byte(fmt.Sprintf("key-%09d", i%keys)))
	}
}

func BenchmarkBucketCommit1k(b *testing.B) {
	tr, _ := New(kvstore.NewMem(), Options{})
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

// BenchmarkBucketCommitSparse is a block-sized write set against a large
// resident state: 100k keys, and per iteration 16 overwrites landing in
// 16 distinct buckets plus the Commit. The puts are inside the timed
// region (pausing the timer around a microsecond-scale commit costs more
// than the puts do).
func BenchmarkBucketCommitSparse(b *testing.B) {
	tr, _ := New(kvstore.NewMem(), Options{})
	const resident = 100_000
	val := make([]byte, 100)
	keys := make([][]byte, resident)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%09d", i))
		tr.Put(keys[i], val)
	}
	if _, err := tr.Commit(); err != nil {
		b.Fatal(err)
	}
	// Write sets of 16 keys in 16 distinct buckets, cycled.
	var sets [][][]byte
	for next := 0; len(sets) < 64; {
		var set [][]byte
		seen := map[int]bool{}
		for len(set) < 16 {
			k := keys[next%resident]
			next++
			if bk := tr.bucketOf(k); !seen[bk] {
				seen[bk] = true
				set = append(set, k)
			}
		}
		sets = append(sets, set)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range sets[i%len(sets)] {
			tr.Put(k, val)
		}
		if _, err := tr.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
