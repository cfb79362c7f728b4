package bmt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

func newTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := New(kvstore.NewMem(), Options{NumBuckets: 101, Grouping: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEmptyRoot(t *testing.T) {
	tr := newTree(t)
	r, err := tr.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsZero() {
		t.Fatal("empty tree root should be zero")
	}
}

func TestPutGetDelete(t *testing.T) {
	tr := newTree(t)
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if err := tr.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Get([]byte("k")); v != nil {
		t.Fatal("delete failed")
	}
}

func TestRootCanonical(t *testing.T) {
	build := func(perm []int) [32]byte {
		tr := newTree(t)
		for _, i := range perm {
			tr.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i)))
		}
		r, err := tr.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := make([]int, 40)
	for i := range base {
		base[i] = i
	}
	r1 := build(base)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3; trial++ {
		if r2 := build(rng.Perm(40)); r2 != r1 {
			t.Fatal("root depends on insertion order")
		}
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr := newTree(t)
	tr.Put([]byte("a"), []byte("1"))
	r1, _ := tr.Commit()
	tr.Put([]byte("a"), []byte("2"))
	r2, _ := tr.Commit()
	if r1 == r2 {
		t.Fatal("root ignored value update")
	}
	tr.Put([]byte("a"), []byte("1"))
	r3, _ := tr.Commit()
	if r3 != r1 {
		t.Fatal("root not canonical after revert")
	}
}

func TestDeleteRestoresRoot(t *testing.T) {
	tr := newTree(t)
	tr.Put([]byte("x"), []byte("1"))
	r1, _ := tr.Commit()
	tr.Put([]byte("y"), []byte("2"))
	tr.Commit()
	tr.Delete([]byte("y"))
	r2, _ := tr.Commit()
	if r1 != r2 {
		t.Fatal("delete did not restore root")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	store := kvstore.NewMem()
	tr, err := New(store, Options{NumBuckets: 101, Grouping: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	r1, err := tr.Commit()
	if err != nil {
		t.Fatal(err)
	}

	tr2, err := New(store, Options{NumBuckets: 101, Grouping: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.RootHash(); got != r1 {
		t.Fatalf("reopened root %v != %v", got, r1)
	}
	v, err := tr2.Get([]byte("k042"))
	if err != nil || string(v) != "v42" {
		t.Fatalf("reopened get = %q, %v", v, err)
	}
}

func TestModelEquivalence(t *testing.T) {
	tr := newTree(t)
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("key-%03d", rng.Intn(250)))
		switch rng.Intn(3) {
		case 0:
			v := []byte(fmt.Sprintf("val-%d", i))
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = v
		case 1:
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		case 2:
			got, err := tr.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			want := model[string(k)]
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: %s = %q want %q", i, k, got, want)
			}
		}
	}
	count := 0
	tr.Iterate(func(k, v []byte) bool {
		if !bytes.Equal(model[string(k)], v) {
			t.Fatalf("iterate mismatch at %s", k)
		}
		count++
		return true
	})
	if count != len(model) {
		t.Fatalf("iterated %d keys, model has %d", count, len(model))
	}
}

func TestDiskFootprintFlat(t *testing.T) {
	// One state key should cost roughly one store record (plus digests),
	// in contrast to the MPT's multi-node paths.
	store := kvstore.NewMem()
	tr, _ := New(store, Options{NumBuckets: 101})
	const keys = 1000
	for i := 0; i < keys; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%06d", i)), make([]byte, 100))
	}
	tr.Commit()
	got := 0
	if err := store.Iterate(nil, nil, func(_, _ []byte) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got > keys+101 {
		t.Fatalf("store keys = %d, want <= %d", got, keys+101)
	}
}

// referenceRoot recomputes the root from the store's data records alone,
// the way the tree did before it kept interior levels resident: every
// bucket rehashed from its records, then the full fold. It shares no
// state with the Tree under test.
func referenceRoot(t *testing.T, store kvstore.Store, numBuckets, grouping int) types.Hash {
	t.Helper()
	encs := make([][]byte, numBuckets)
	err := store.Iterate([]byte("b:"), []byte("b;"), func(k, v []byte) bool {
		b := int(binary.BigEndian.Uint32(k[2:6]))
		encs[b] = types.AppendBytes(types.AppendBytes(encs[b], k[7:]), v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]types.Hash, numBuckets)
	for b, e := range encs {
		if e != nil {
			digests[b] = types.HashData(e)
		}
	}
	return referenceFold(digests, grouping)
}

// referenceFold is the pre-incremental Tree.root, verbatim: fold bucket
// digests up through grouped interior levels, from scratch.
func referenceFold(bucketHash []types.Hash, grouping int) types.Hash {
	level := bucketHash
	for len(level) > 1 {
		next := make([]types.Hash, 0, (len(level)+grouping-1)/grouping)
		for i := 0; i < len(level); i += grouping {
			j := i + grouping
			if j > len(level) {
				j = len(level)
			}
			var e []byte
			empty := true
			for _, h := range level[i:j] {
				e = append(e, h[:]...)
				if !h.IsZero() {
					empty = false
				}
			}
			if empty {
				next = append(next, types.ZeroHash)
			} else {
				next = append(next, types.HashData(e))
			}
		}
		level = next
	}
	if len(level) == 0 {
		return types.ZeroHash
	}
	return level[0]
}

var geometries = []Options{
	{NumBuckets: 1, Grouping: 2},
	{NumBuckets: 7, Grouping: 3},
	{NumBuckets: 100, Grouping: 10},
	{NumBuckets: 101, Grouping: 10},
	{NumBuckets: 50, Grouping: 64},
	{NumBuckets: 10009, Grouping: 10},
}

// randomOps applies n seeded Put/Delete operations over a 300-key space.
func randomOps(t *testing.T, rng *rand.Rand, n int, trees ...*Tree) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%03d", rng.Intn(300)))
		v := []byte(fmt.Sprintf("val-%d", rng.Int63()))
		del := rng.Intn(3) == 0
		for _, tr := range trees {
			var err error
			if del {
				err = tr.Delete(k)
			} else {
				err = tr.Put(k, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestIncrementalFoldMatchesReference(t *testing.T) {
	for _, g := range geometries {
		t.Run(fmt.Sprintf("%dx%d", g.NumBuckets, g.Grouping), func(t *testing.T) {
			store := kvstore.NewMem()
			tr, err := New(store, g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(g.NumBuckets)*31 + int64(g.Grouping)))
			check := func(step string) types.Hash {
				root, err := tr.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceRoot(t, store, g.NumBuckets, g.Grouping); root != want {
					t.Fatalf("%s: incremental root %s, reference %s", step, root.Hex(), want.Hex())
				}
				return root
			}
			for c := 0; c < 40; c++ {
				// Write sets from one key to a block's worth.
				randomOps(t, rng, 1+rng.Intn(40), tr)
				check(fmt.Sprintf("commit %d", c))
			}
			// Empty the tree a few keys per commit: every bucket, then
			// every group above it, must pass back through ZeroHash.
			for i := 0; i < 300; i++ {
				if err := tr.Delete([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					check(fmt.Sprintf("drain %d", i))
				}
			}
			if root := check("drained"); !root.IsZero() {
				t.Fatalf("drained tree root %s, want zero", root.Hex())
			}
			// And back up from empty.
			randomOps(t, rng, 20, tr)
			check("refill")
		})
	}
}

func TestReopenContinuesIncrementally(t *testing.T) {
	for _, g := range geometries {
		t.Run(fmt.Sprintf("%dx%d", g.NumBuckets, g.Grouping), func(t *testing.T) {
			live, err := New(kvstore.NewMem(), g)
			if err != nil {
				t.Fatal(err)
			}
			store := kvstore.NewMem()
			reopened, err := New(store, g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			for c := 0; c < 12; c++ {
				randomOps(t, rng, 1+rng.Intn(30), live, reopened)
				want, err := live.Commit()
				if err != nil {
					t.Fatal(err)
				}
				got, err := reopened.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("commit %d: reopened tree root %s, never-closed %s", c, got.Hex(), want.Hex())
				}
				if c%3 == 2 {
					if reopened, err = New(store, g); err != nil {
						t.Fatal(err)
					}
					if got := reopened.RootHash(); got != want {
						t.Fatalf("commit %d: root after reopen %s, before %s", c, got.Hex(), want.Hex())
					}
				}
			}
		})
	}
}

// goldenSets are fixed inputs whose roots were captured from the commit
// before the incremental fold (d61433f) and are pinned below: replica
// agreement, restart byte-identity and recorded state roots all depend on
// these bytes never changing.
var goldenSets = []struct {
	opts  Options
	build func(*Tree) (types.Hash, error)
	want  string
}{
	{ // default geometry, one dense commit
		opts: Options{},
		build: func(tr *Tree) (types.Hash, error) {
			for i := 0; i < 1000; i++ {
				tr.Put([]byte(fmt.Sprintf("acct-%04d", i)), []byte(fmt.Sprintf("bal-%d", i*7)))
			}
			return tr.Commit()
		},
		want: "07099a7cbc290f19d3694ac6f4eeb72da1662537318aa15cf80144b37d094add",
	},
	{ // ragged last group; overwrites and deletes across two commits
		opts: Options{NumBuckets: 101, Grouping: 4},
		build: func(tr *Tree) (types.Hash, error) {
			for i := 0; i < 40; i++ {
				tr.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i)))
			}
			if _, err := tr.Commit(); err != nil {
				return types.ZeroHash, err
			}
			for i := 0; i < 40; i++ {
				switch {
				case i%3 == 0:
					tr.Delete([]byte(fmt.Sprintf("key-%03d", i)))
				case i%5 == 0:
					tr.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("overwritten"))
				}
			}
			return tr.Commit()
		},
		want: "6a0c36411b0a11651fdeae61f2cd2e177596f4d39364985070705b809d6eff17",
	},
	{ // crowded buckets, 100-byte values
		opts: Options{NumBuckets: 7, Grouping: 3},
		build: func(tr *Tree) (types.Hash, error) {
			val := make([]byte, 100)
			for i := 0; i < 200; i++ {
				val[i%100] = byte(i)
				tr.Put([]byte(fmt.Sprintf("c:ioheavy:%020d", i)), val)
			}
			return tr.Commit()
		},
		want: "bb8035da1e28f41837ec45715203702f3524f7888d26ea4cb6516c407b8e45a6",
	},
}

func TestGoldenRoots(t *testing.T) {
	for i, g := range goldenSets {
		tr, err := New(kvstore.NewMem(), g.opts)
		if err != nil {
			t.Fatal(err)
		}
		root, err := g.build(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(root[:]); got != g.want {
			t.Errorf("golden set %d: root %s, pinned %s", i, got, g.want)
		}
	}
}

func TestRootHashReportsLastCommit(t *testing.T) {
	tr := newTree(t)
	tr.Put([]byte("a"), []byte("1"))
	if !tr.RootHash().IsZero() {
		t.Fatal("uncommitted put visible in RootHash")
	}
	r1, _ := tr.Commit()
	tr.Put([]byte("b"), []byte("2"))
	tr.Delete([]byte("a"))
	if got := tr.RootHash(); got != r1 {
		t.Fatalf("RootHash before Commit = %s, want last committed %s", got.Hex(), r1.Hex())
	}
	r2, _ := tr.Commit()
	if r2 == r1 || tr.RootHash() != r2 {
		t.Fatalf("RootHash after Commit = %s, commit returned %s (previous %s)", tr.RootHash().Hex(), r2.Hex(), r1.Hex())
	}
}

// TestCommitCostIndependentOfTreeSize pins the cost model: committing a
// write set allocates the same on a 101-bucket and a 10009-bucket tree,
// because only the dirty buckets and their ancestors are rehashed.
func TestCommitCostIndependentOfTreeSize(t *testing.T) {
	small, err := New(kvstore.NewMem(), Options{NumBuckets: 101})
	if err != nil {
		t.Fatal(err)
	}
	large, err := New(kvstore.NewMem(), Options{NumBuckets: 10009})
	if err != nil {
		t.Fatal(err)
	}
	// Eight keys that land in eight distinct buckets under both
	// geometries, so both trees do the same number of store operations.
	var keys [][]byte
	usedSmall, usedLarge := map[int]bool{}, map[int]bool{}
	for i := 0; len(keys) < 8; i++ {
		k := []byte(fmt.Sprintf("acct-%04d", i))
		bs, bl := small.bucketOf(k), large.bucketOf(k)
		if usedSmall[bs] || usedLarge[bl] {
			continue
		}
		usedSmall[bs], usedLarge[bl] = true, true
		keys = append(keys, k)
	}
	val := make([]byte, 100)
	measure := func(tr *Tree) float64 {
		return testing.AllocsPerRun(50, func() {
			for _, k := range keys {
				tr.Put(k, val)
			}
			if _, err := tr.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(large)
	// Per key: the store's copies of record key and value on Put, the
	// value read back on Commit, and the digest record's key and value.
	const budget = 8*5 + 4
	if a > budget || b > budget {
		t.Errorf("8-key commit allocates %.0f (101 buckets) / %.0f (10009 buckets), budget %d", a, b, budget)
	}
	if d := a - b; d > 2 || d < -2 {
		t.Errorf("commit allocations depend on tree size: %.0f at 101 buckets, %.0f at 10009", a, b)
	}
	t.Logf("8-key put+commit: %.0f allocs at 101 buckets, %.0f at 10009", a, b)
}
