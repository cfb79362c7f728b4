package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"blockbench/internal/bmt"
	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

func backends(t *testing.T) map[string]func() Backend {
	t.Helper()
	return map[string]func() Backend{
		"trie": func() Backend {
			b, err := NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"trie-lru": func() Backend {
			b, err := NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 16)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"trie-flat-lsm": func() Backend {
			store, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{MemTableBytes: 1 << 12, SyncBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			b, err := NewTrieBackendShared(store, types.ZeroHash, NewSharedCache(16), NewFlatState(store, 16))
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"bucket": func() Backend {
			b, err := NewBucketBackend(kvstore.NewMem(), bmt.Options{NumBuckets: 31})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
}

func addr(s string) types.Address { return types.BytesToAddress([]byte(s)) }

func TestBalancesAndTransfer(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := NewDB(mk())
			alice, bob := addr("alice"), addr("bob")
			if db.GetBalance(alice) != 0 {
				t.Fatal("fresh account has balance")
			}
			// Mint from the zero address.
			if err := db.Transfer(types.ZeroAddress, alice, 100); err != nil {
				t.Fatal(err)
			}
			if err := db.Transfer(alice, bob, 40); err != nil {
				t.Fatal(err)
			}
			if db.GetBalance(alice) != 60 || db.GetBalance(bob) != 40 {
				t.Fatalf("balances: %d, %d", db.GetBalance(alice), db.GetBalance(bob))
			}
			if err := db.Transfer(alice, bob, 1000); err == nil {
				t.Fatal("overdraft allowed")
			}
		})
	}
}

func TestSnapshotRevert(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := NewDB(mk())
			db.SetState("c", []byte("k1"), []byte("v1"))
			snap := db.Snapshot()
			db.SetState("c", []byte("k1"), []byte("changed"))
			db.SetState("c", []byte("k2"), []byte("new"))
			db.SetBalance(addr("x"), 77)
			db.Revert(snap)
			if got := db.GetState("c", []byte("k1")); string(got) != "v1" {
				t.Fatalf("k1 = %q after revert", got)
			}
			if db.GetState("c", []byte("k2")) != nil {
				t.Fatal("k2 survived revert")
			}
			if db.GetBalance(addr("x")) != 0 {
				t.Fatal("balance survived revert")
			}
		})
	}
}

func TestNestedSnapshots(t *testing.T) {
	db := NewDB(mustTrie(t))
	db.SetState("c", []byte("k"), []byte("0"))
	s1 := db.Snapshot()
	db.SetState("c", []byte("k"), []byte("1"))
	s2 := db.Snapshot()
	db.SetState("c", []byte("k"), []byte("2"))
	db.Revert(s2)
	if got := db.GetState("c", []byte("k")); string(got) != "1" {
		t.Fatalf("after inner revert: %q", got)
	}
	db.Revert(s1)
	if got := db.GetState("c", []byte("k")); string(got) != "0" {
		t.Fatalf("after outer revert: %q", got)
	}
}

func TestRevertDeletion(t *testing.T) {
	db := NewDB(mustTrie(t))
	db.SetState("c", []byte("k"), []byte("v"))
	if _, err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	db.DeleteState("c", []byte("k"))
	if db.GetState("c", []byte("k")) != nil {
		t.Fatal("delete not visible")
	}
	db.Revert(snap)
	if got := db.GetState("c", []byte("k")); string(got) != "v" {
		t.Fatalf("deletion not reverted: %q", got)
	}
}

func TestCommitPersistsAndRootChanges(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := NewDB(mk())
			r0, err := db.Commit()
			if err != nil {
				t.Fatal(err)
			}
			db.SetState("kv", []byte("key"), []byte("val"))
			r1, err := db.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if r1 == r0 {
				t.Fatal("root unchanged after write")
			}
			if got := db.GetState("kv", []byte("key")); string(got) != "val" {
				t.Fatalf("read-through after commit: %q", got)
			}
		})
	}
}

func TestNamespaceIsolation(t *testing.T) {
	db := NewDB(mustTrie(t))
	db.SetState("c1", []byte("k"), []byte("one"))
	db.SetState("c2", []byte("k"), []byte("two"))
	if string(db.GetState("c1", []byte("k"))) != "one" ||
		string(db.GetState("c2", []byte("k"))) != "two" {
		t.Fatal("namespaces bleed")
	}
}

func TestTrieAndBucketModelEquivalence(t *testing.T) {
	// Every backend must expose identical visible state under a random
	// workload of puts and deletions, even though roots and layouts
	// differ. Between commits a read is answered by the DB's overlay, so
	// each commit is followed by a sweep of the whole key space: that is
	// what proves a nil in the write set deleted the key in the backend.
	dbs := map[string]*DB{}
	for name, mk := range backends(t) {
		dbs[name] = NewDB(mk())
	}
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("key-%03d", rng.Intn(150)))
		op := rng.Intn(4)
		v := []byte(fmt.Sprintf("val-%d", i))
		for _, db := range dbs {
			switch op {
			case 0, 1:
				db.SetState("w", k, v)
			case 2:
				db.DeleteState("w", k)
			}
		}
		switch op {
		case 0, 1:
			model[string(k)] = v
		case 2:
			delete(model, string(k))
		}
		if op == 3 {
			for name, db := range dbs {
				if got := db.GetState("w", k); !bytes.Equal(got, model[string(k)]) {
					t.Fatalf("%s: op %d mismatch at %s", name, i, k)
				}
			}
		}
		if i%500 == 499 {
			for name, db := range dbs {
				if _, err := db.Commit(); err != nil {
					t.Fatalf("%s: commit: %v", name, err)
				}
				for j := 0; j < 150; j++ {
					k := fmt.Sprintf("key-%03d", j)
					if got := db.GetState("w", []byte(k)); !bytes.Equal(got, model[k]) {
						t.Fatalf("%s: after commit at op %d, %s = %q, model %q", name, i, k, got, model[k])
					}
				}
			}
		}
	}
}

func TestParityMemoryCapSurfacesOnCommit(t *testing.T) {
	// Parity pins state in memory; when the cap is hit, commits fail —
	// the IOHeavy "X" (out of memory) data points.
	store := kvstore.NewMemCapped(1 << 12)
	b, err := NewTrieBackend(store, types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(b)
	var commitErr error
	for i := 0; i < 1000 && commitErr == nil; i++ {
		db.SetState("io", []byte(fmt.Sprintf("key-%06d", i)), make([]byte, 100))
		if i%10 == 9 {
			_, commitErr = db.Commit()
		}
	}
	if commitErr == nil {
		t.Fatal("capped store never reported memory exhaustion")
	}
}

func mustTrie(t *testing.T) Backend {
	t.Helper()
	b, err := NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
