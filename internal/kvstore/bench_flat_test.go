// Flat-state cache benchmark. This file is in package kvstore_test so
// it can import internal/state (which itself imports kvstore) without a
// cycle — the flat layer's point is precisely the boundary between the
// two packages.
package kvstore_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"blockbench/internal/kvstore"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// BenchmarkFlatCacheHit measures head-state point reads through the
// flat snapshot layer over the LSM engine: after a few thousand
// accounts are committed, repeated reads must be served by the flat
// layer (flat-hit% ≈ 100) at in-memory cost instead of a trie walk
// ending in run probes.
func BenchmarkFlatCacheHit(b *testing.B) {
	store, err := kvstore.OpenLSM(b.TempDir(), kvstore.LSMOptions{SyncBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()

	const accounts = 4096
	flat := state.NewFlatState(store, accounts)
	cache := state.NewSharedCache(1024)
	root := types.ZeroHash
	fb, err := state.NewTrieBackendShared(store, root, cache, flat)
	if err != nil {
		b.Fatal(err)
	}
	db := state.NewDB(fb)
	for i := 0; i < accounts; i++ {
		db.SetState("bench", []byte(fmt.Sprintf("acct-%06d", i)), types.U64Bytes(uint64(i)))
	}
	root, err = db.Commit()
	if err != nil {
		b.Fatal(err)
	}

	// A fresh backend at the head root, as the per-block state factory
	// would open it; the shared FlatState carries the hot set across.
	fb2, err := state.NewTrieBackendShared(store, root, cache, flat)
	if err != nil {
		b.Fatal(err)
	}
	headDB := state.NewDB(fb2)

	const gets = 10_000
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		start := time.Now()
		for g := 0; g < gets; g++ {
			k := []byte(fmt.Sprintf("acct-%06d", rng.Intn(accounts)))
			if v := headDB.GetState("bench", k); v == nil {
				b.Fatalf("lost account %s", k)
			}
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(gets)/1e3, "us/get")
	}
	c := flat.Counters()
	if total := c["store.flat_hits"] + c["store.flat_misses"]; total > 0 {
		b.ReportMetric(100*float64(c["store.flat_hits"])/float64(total), "flat-hit%")
	}
}
