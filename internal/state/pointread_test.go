package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// readFixture is the read side of the quorum preset's state stack: tuples
// IOHeavy tuples and as many balances committed as one block through a
// trie backend with a flat layer of lru entries over store, and a DB
// opened at the head root.
func readFixture(t testing.TB, store kvstore.Store, tuples, lru int) (*DB, *FlatState, [][]byte, []types.Address) {
	flat := NewFlatState(store, lru)
	b, err := NewTrieBackendShared(store, types.ZeroHash, NewSharedCache(lru), flat)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(b)
	keys, addrs := make([][]byte, tuples), make([]types.Address, tuples)
	val := make([]byte, 100)
	for i := range keys {
		keys[i] = ioKey(uint64(i))
		addrs[i] = types.BytesToAddress(keys[i])
		db.SetState("ioheavy", keys[i], val)
		db.SetBalance(addrs[i], uint64(i)+1)
	}
	root, err := db.Commit()
	if err != nil {
		t.Fatal(err)
	}
	head, err := NewTrieBackendShared(store, root, NewSharedCache(lru), flat)
	if err != nil {
		t.Fatal(err)
	}
	return NewDB(head), flat, keys, addrs
}

// TestGetStateAllocBudget is the state layer's read budget, through the
// stack the geth-lineage presets build (DB over TrieBackend over FlatState
// over a store): a read served by the overlay or the flat layer's LRU
// allocates nothing — the composite key lives in the DB's scratch buffer,
// and the LRU's key is a value built on the stack — and one the flat layer
// fetches from the store allocates nothing either: an LSM run copies the
// value into its read arena's current 32 KiB chunk, and an LSM memtable
// or a Mem store (ycsb-quorum's) share the value they hold.
func TestGetStateAllocBudget(t *testing.T) {
	const tuples, lru = 640, 64
	run := openLSM(t)
	for _, st := range []struct {
		name      string
		store     kvstore.Store
		flush     func() error // puts the fixture in a run; nil leaves it in the memtable
		persisted uint64       // budget for a read the store serves
	}{
		{"LSM run", run, run.Flush, 0},
		{"LSM memtable", openLSM(t), nil, 0},
		{"Mem", kvstore.NewMem(), nil, 0},
	} {
		db, flat, keys, addrs := readFixture(t, st.store, tuples, lru)
		if st.flush != nil {
			if err := st.flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Cycling through ten times the LRU's capacity, every read finds its
		// key evicted; the counters below confirm which path each case took.
		next := 0
		cycle := func() int { next = (next + 1) % tuples; return next }
		db.SetState("ioheavy", []byte("dirty"), []byte("v"))
		db.SetBalance(types.Address{1}, 7)

		for _, tc := range []struct {
			name            string
			read            func() bool
			budget          uint64
			lruHits, stored uint64 // per read
		}{
			{"GetState overlay hit", func() bool { return db.GetState("ioheavy", []byte("dirty")) != nil }, 0, 0, 0},
			{"GetBalance overlay hit", func() bool { return db.GetBalance(types.Address{1}) == 7 }, 0, 0, 0},
			{"GetState LRU hit", func() bool { return db.GetState("ioheavy", keys[0]) != nil }, 0, 1, 0},
			{"GetBalance LRU hit", func() bool { return db.GetBalance(addrs[0]) == 1 }, 0, 1, 0},
			{"GetState persisted hit", func() bool { return db.GetState("ioheavy", keys[cycle()]) != nil }, st.persisted, 0, 1},
			{"GetBalance persisted hit", func() bool { i := cycle(); return db.GetBalance(addrs[i]) == uint64(i)+1 }, st.persisted, 0, 1},
		} {
			const runs = 201
			// Settle the LRU: a case that reads one key leaves it resident, a
			// cycling one leaves only keys it will not reach again in time.
			for i := 0; i < tuples; i++ {
				tc.read()
			}
			before := flat.Counters()
			got := medianAllocs(runs, func() {
				if !tc.read() {
					t.Fatalf("%s, %s: wrong value", st.name, tc.name)
				}
			})
			after := flat.Counters()
			hits := after["store.flat_hits"] - before["store.flat_hits"]
			stored := after["store.flat_persisted_hits"] - before["store.flat_persisted_hits"]
			// medianAllocs makes one warm-up call on top of runs.
			if want := tc.stored * (runs + 1); stored != want || hits-stored != tc.lruHits*(runs+1) {
				t.Errorf("%s, %s: %d LRU hits and %d persisted hits in %d reads", st.name, tc.name, hits-stored, stored, runs+1)
			}
			if got > tc.budget {
				t.Errorf("%s, %s: %d allocations per read, budget %d", st.name, tc.name, got, tc.budget)
			}
		}
	}
}

// medianAllocs is the median number of allocations over runs single calls
// of fn, after one warm-up call. A median rather than AllocsPerRun's
// mean: under the race detector sync.Pool drops a quarter of what it is
// given on purpose, and those calls allocate a new region buffer.
func medianAllocs(runs int, fn func()) uint64 {
	allocs := make([]uint64, 0, runs)
	for i := -1; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if i >= 0 {
			allocs = append(allocs, after.Mallocs-before.Mallocs)
		}
	}
	slices.Sort(allocs)
	return allocs[runs/2]
}

// TestFlatCountersSplitPersistedHits pins what the three read counters
// mean: flat_hits is every read the layer served, flat_persisted_hits the
// ones among them that went to the store because the LRU had dropped the
// key (so LRU hits = hits - persisted), flat_misses the reads sent on to
// the trie — an unknown key or a root the layer is not anchored at.
func TestFlatCountersSplitPersistedHits(t *testing.T) {
	f := NewFlatState(kvstore.NewMem(), 4)
	root := types.Hash{9}
	writes := map[string][]byte{}
	for i := 0; i < 10; i++ {
		writes[fmt.Sprintf("k%d", i)] = []byte{byte(i)}
	}
	f.Advance(types.ZeroHash, root, writes)

	expect := func(step string, hits, persisted, misses uint64) {
		t.Helper()
		c := f.Counters()
		if c["store.flat_hits"] != hits || c["store.flat_persisted_hits"] != persisted || c["store.flat_misses"] != misses {
			t.Fatalf("%s: hits %d, persisted %d, misses %d; want %d, %d, %d", step,
				c["store.flat_hits"], c["store.flat_persisted_hits"], c["store.flat_misses"], hits, persisted, misses)
		}
	}
	get := func(k string, want bool) {
		t.Helper()
		if _, ok := f.Get(root, []byte(k)); ok != want {
			t.Fatalf("Get(%s) served = %v", k, ok)
		}
	}
	// Which four keys Advance left resident is map order: read five
	// others' worth so k0 is known to be out, then start counting.
	for i := 1; i <= 5; i++ {
		get(fmt.Sprintf("k%d", i), true)
	}
	base := f.Counters()
	h, p := base["store.flat_hits"], base["store.flat_persisted_hits"]

	get("k0", true) // evicted: the store serves it and the LRU takes it back
	expect("persisted hit", h+1, p+1, 0)
	get("k0", true)
	expect("LRU hit", h+2, p+1, 0)
	get("unknown", false)
	expect("miss", h+2, p+1, 1)
	if _, ok := f.Get(types.Hash{1}, []byte("k0")); ok {
		t.Fatal("served at a foreign root")
	}
	expect("stale root", h+2, p+1, 2)
}

// TestScratchKeyNotRetained runs a DB and a model that builds a fresh
// string for every key through the same random interleaving of reads,
// writes, deletes, snapshots and reverts, over contracts and keys of
// different lengths (so a longer composite key is always followed by a
// shorter one in the same buffer). Every read must agree, and the write
// set the backend is handed at commit must be the model's: a scratch
// buffer that leaked into the overlay or the journal as a key would be
// rewritten by the next call and show up as a wrong or missing entry.
func TestScratchKeyNotRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	contracts := []string{"c", "ioheavy", "a-much-longer-contract-name"}
	keys := [][]byte{[]byte("k"), []byte("key-two"), bytes.Repeat([]byte("long"), 16), {}}
	addrs := []types.Address{{1}, {2}, types.BytesToAddress(bytes.Repeat([]byte{0xab}, 20))}

	committed := map[string][]byte{"c:c:k": []byte("base"), "a:" + string(addrs[0][:]): types.U64Bytes(50)}
	rec := &recordingBackend{base: committed}
	db := NewDB(rec)
	model := map[string][]byte{} // overlay: nil = deleted
	var snaps []int
	var modelSnaps []map[string][]byte
	modelRead := func(k string) []byte {
		if v, ok := model[k]; ok {
			return v
		}
		return committed[k]
	}

	for step := 0; step < 5000; step++ {
		c, k, a := contracts[rng.Intn(len(contracts))], keys[rng.Intn(len(keys))], addrs[rng.Intn(len(addrs))]
		sk, ak := "c:"+c+":"+string(k), "a:"+string(a[:])
		switch op := rng.Intn(10); op {
		case 0, 1, 2:
			if got, want := db.GetState(c, k), modelRead(sk); !bytes.Equal(got, want) {
				t.Fatalf("step %d: GetState(%q, %q) = %q, model %q", step, c, k, got, want)
			}
		case 3:
			if got, want := db.GetBalance(a), types.U64(modelRead(ak)); got != want {
				t.Fatalf("step %d: GetBalance(%x) = %d, model %d", step, a, got, want)
			}
		case 4, 5:
			v := []byte(fmt.Sprintf("v%d", step))
			db.SetState(c, k, v)
			model[sk] = v
		case 6:
			db.DeleteState(c, k)
			model[sk] = nil
		case 7:
			db.SetBalance(a, uint64(step))
			model[ak] = types.U64Bytes(uint64(step))
		case 8:
			snaps = append(snaps, db.Snapshot())
			cp := make(map[string][]byte, len(model))
			for mk, mv := range model {
				cp[mk] = mv
			}
			modelSnaps = append(modelSnaps, cp)
		case 9:
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				db.Revert(snaps[i])
				model = modelSnaps[i]
				snaps, modelSnaps = snaps[:i], modelSnaps[:i]
			}
		}
	}
	if _, err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != len(model) {
		t.Fatalf("commit handed over %d keys, model has %d", len(rec.writes), len(model))
	}
	for k, want := range model {
		if got, ok := rec.writes[k]; !ok || !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("write set[%q] = %q (present %v), model %q", k, got, ok, want)
		}
	}
}

// recordingBackend serves reads from a fixed map and keeps the write set
// of the one commit it sees.
type recordingBackend struct {
	base   map[string][]byte
	writes map[string][]byte
}

func (b *recordingBackend) Get(key []byte) ([]byte, error) { return b.base[string(key)], nil }

func (b *recordingBackend) Commit(writes map[string][]byte) (types.Hash, error) {
	b.writes = writes
	return types.ZeroHash, nil
}

// BenchmarkStatePointRead measures DB.GetState at the head root of the
// quorum preset's state stack when the working set is five times the
// flat layer's LRU — ioread-quorum-lsm's shape: four reads in five find
// their key evicted and go to the LSM. A fixed inner loop reports us/get
// and allocs/get, so the row survives `make bench`'s -benchtime 1x.
func BenchmarkStatePointRead(b *testing.B) {
	const tuples, gets = 20000, 20000
	store := openLSM(b)
	db, flat, keys, _ := readFixture(b, store, tuples, tuples/5)
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var ms runtime.MemStats
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		runtime.ReadMemStats(&ms)
		mallocs, start := ms.Mallocs, time.Now()
		for g := 0; g < gets; g++ {
			if v := db.GetState("ioheavy", keys[rng.Intn(tuples)]); len(v) != 100 {
				b.Fatalf("lost a tuple: %x", v)
			}
		}
		took := time.Since(start)
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(took.Nanoseconds())/gets/1e3, "us/get")
		b.ReportMetric(float64(ms.Mallocs-mallocs)/gets, "allocs/get")
	}
	c := flat.Counters()
	b.ReportMetric(100*float64(c["store.flat_hits"]-c["store.flat_persisted_hits"])/float64(c["store.flat_hits"]+c["store.flat_misses"]), "lru-hit%")
}

// TestSetStateAllocBudget: a write-set entry is one record. SetState
// makes one allocation beyond the overlay's and the journal's growth,
// which the test pre-grows by writing the keys once and reverting, and
// the value the backend is handed has its capacity clipped, so an
// append to it copies rather than writing into the record.
func TestSetStateAllocBudget(t *testing.T) {
	rec := &recordingBackend{}
	db := NewDB(rec)
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("tuple-%020d", i))
		db.SetState("ioheavy", keys[i], []byte("first"))
	}
	db.Revert(0)
	value, i := bytes.Repeat([]byte{7}, 100), 0
	if a := testing.AllocsPerRun(len(keys)-1, func() {
		db.SetState("ioheavy", keys[i], value)
		i++
	}); a != 1 {
		t.Fatalf("SetState: %v allocations, want 1", a)
	}
	value[0] = 8 // the caller's slice is its own again
	if _, err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != len(keys) {
		t.Fatalf("write set holds %d keys, want %d", len(rec.writes), len(keys))
	}
	for k, v := range rec.writes {
		if !bytes.Equal(v, bytes.Repeat([]byte{7}, 100)) || cap(v) != len(v) {
			t.Fatalf("write set[%q] = %d bytes of cap %d: %x", k, len(v), cap(v), v)
		}
	}
}
