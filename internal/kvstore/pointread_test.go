package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
)

// TestPointReadAllocBudget is the storage engine's read budget: a point
// read allocates what it hands back and nothing else. The memtable and
// Mem share the stored slice, a run-served hit copies the value out of
// the pooled region buffer into a region of the store's read arena (no
// allocation but the chunk every 32 KiB, TestRunReadAllocBudget), and a
// probe that the key bounds or the bloom filter reject touches neither
// file nor heap.
func TestPointReadAllocBudget(t *testing.T) {
	s, err := OpenLSM(t.TempDir(), LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mem := NewMem()
	val := make([]byte, 100)
	// 40-byte keys, like a trie node's: a string conversion of one does
	// not fit the 32-byte stack buffer that would hide it from the count.
	key := func(i int, suffix string) string { return fmt.Sprintf("key-%036d%s", i, suffix) }
	for i := 0; i < 1000; i++ {
		k := []byte(key(i, ""))
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		mem.Put(k, val)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte(key(0, "-in-the-memtable")), val); err != nil {
		t.Fatal(err)
	}

	// A key inside the run's bounds that the filter rejects: with ten bits
	// a key nearly every absent one is, so take the first that skips.
	var rejected []byte
	for i := 0; rejected == nil; i++ {
		k := []byte(key(i, "x"))
		before := s.Counters()["store.bloom_skips"]
		s.Get(k)
		if s.Counters()["store.bloom_skips"] > before {
			rejected = k
		}
	}

	for _, tc := range []struct {
		name   string
		store  Store
		key    string
		found  bool
		budget uint64
	}{
		{"lsm memtable hit", s, key(0, "-in-the-memtable"), true, 0},
		{"lsm run-served hit", s, key(500, ""), true, 0},
		{"lsm run-served hit, last record", s, key(999, ""), true, 0},
		{"lsm bloom-rejected miss", s, string(rejected), false, 0},
		{"lsm miss below the run's bounds", s, "a", false, 0},
		{"lsm miss above the run's bounds", s, "z", false, 0},
		{"mem hit", mem, key(500, ""), true, 0},
		{"mem miss", mem, "nope", false, 0},
	} {
		k := []byte(tc.key)
		got := medianAllocs(101, func() {
			if _, ok, err := tc.store.Get(k); err != nil || ok != tc.found {
				t.Fatalf("%s: found=%v err=%v", tc.name, ok, err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: %d allocations per Get, budget %d", tc.name, got, tc.budget)
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

// TestLSMPointReadMatchesModel drives Get against a map oracle over three
// runs and a memtable, with overwrites and tombstones spread across them,
// and probes every place the byte-wise run probe decides something: the
// first and last record of each run and of each 16-record index region,
// keys equal to an index entry and between two, an empty value, a key
// longer than the iterators' 32 KiB read window, and absent keys below,
// inside and above every run's bounds. One bloom bit per key makes false
// positives the norm, so absent keys do reach the in-region walk.
func TestLSMPointReadMatchesModel(t *testing.T) {
	for _, bits := range []int{1, 10} {
		t.Run(fmt.Sprintf("bloombits=%d", bits), func(t *testing.T) {
			// Fanout and MaxRuns out of reach: the runs stay as flushed.
			s, err := OpenLSM(t.TempDir(), LSMOptions{SyncBytes: -1, BloomBits: bits, Fanout: 100, MaxRuns: 100})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			model := map[string][]byte{}
			put := func(k string, v []byte) {
				t.Helper()
				if err := s.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			del := func(k string) {
				t.Helper()
				if err := s.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			}
			key := func(i int) string { return fmt.Sprintf("k%04d", i) }
			long := "k0050" + string(bytes.Repeat([]byte{'L'}, 40<<10))

			// Oldest run: 100 keys, k0100..k0199 (seven index regions).
			for i := 100; i < 200; i++ {
				put(key(i), []byte(fmt.Sprintf("old-%d", i)))
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			// Middle run: overlaps the first, overwrites every third key,
			// deletes every seventh, holds the empty value and the long key.
			for i := 50; i < 150; i++ {
				switch {
				case i%7 == 0:
					del(key(i))
				case i%3 == 0 || i < 100:
					put(key(i), []byte(fmt.Sprintf("mid-%d", i)))
				}
			}
			put("k0120-empty", []byte{})
			put(long, []byte("long"))
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			// Newest run: a tombstone over a tombstone, a value over one,
			// and a delete of the oldest run's last record.
			del(key(105))
			put(key(112), []byte("reborn"))
			del(key(199))
			put(key(300), []byte("newest-max"))
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			// Memtable: shadows all three.
			put(key(100), []byte("mem"))
			del(key(101))
			if n := len(s.runs); n != 3 {
				t.Fatalf("%d runs, want 3", n)
			}

			probes := []string{"", "a", "k", "k0049", "k0099x", "k0120-", "k0120-emptyx", "k0301", "z", long + "x", long[:len(long)-1]}
			for i := 40; i < 310; i++ {
				probes = append(probes, key(i), key(i)+"!")
			}
			for k := range model {
				probes = append(probes, k)
			}
			for _, k := range probes {
				want, present := model[k]
				got, ok, err := s.Get([]byte(k))
				if err != nil || ok != present || !bytes.Equal(got, want) {
					t.Fatalf("Get(%.20q) = %.20q, %v, %v; model has %.20q, %v", k, got, ok, err, want, present)
				}
				if ok && got == nil {
					t.Fatalf("Get(%.20q): present with a nil value", k)
				}
			}
		})
	}
}

// TestLSMTornRegion damages a value length inside a run so that a record
// no longer ends where its region does — by lengths that are plausible,
// unlike TestLSMCorruptLengthField's. Grown, the record runs past the
// region; shrunk, the next header is read three bytes early. Both must be
// ErrCorruptRecord from the read, never "absent".
func TestLSMTornRegion(t *testing.T) {
	const recLen = 9 + 6 + 8 // "key-NN" -> "value-NN"
	for name, tc := range map[string]struct {
		rec   int64 // record whose value length is rewritten
		vlen  byte
		probe string
	}{
		"last record of a region runs past it": {15, 8 + 3, "key-15"},
		"last record of the run runs past it":  {63, 8 + 3, "key-63"},
		"short record shifts the next header":  {14, 8 - 3, "key-15"},
	} {
		t.Run(name, func(t *testing.T) {
			dir, path := flushedRun64(t, func(i int) string { return fmt.Sprintf("value-%02d", i) })
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{tc.vlen}, tc.rec*recLen+5); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			if v, ok, err := s2.Get([]byte(tc.probe)); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Get(%s) = %q, %v, %v; want ErrCorruptRecord", tc.probe, v, ok, err)
			}
		})
	}
}

// TestGetResultOwnership pins kvstore.Store's ownership rule on both
// engines: a Get result stays what it was however the key is rewritten,
// flushed or compacted afterwards, and the engine keeps no slice it was
// handed — scribbling over the key and value buffers after Put changes
// nothing stored. CI's race leg runs it too: a store that wrote into a
// slice a reader holds would be a reported race.
func TestGetResultOwnership(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			flush := func() {
				if l, ok := s.(*LSM); ok {
					// 4 KiB memtable, MaxRuns 3: the filler below flushes
					// and merges several times over.
					for i := 0; i < 400; i++ {
						if err := l.Put([]byte(fmt.Sprintf("filler-%04d", i)), make([]byte, 64)); err != nil {
							t.Fatal(err)
						}
					}
					if err := l.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			get := func(want string) []byte {
				t.Helper()
				v, ok, err := s.Get([]byte("the-key"))
				if err != nil || !ok || string(v) != want {
					t.Fatalf("Get = %q, %v, %v; want %q", v, ok, err, want)
				}
				return v
			}

			kbuf, vbuf := []byte("the-key"), []byte("value-1")
			if err := s.Put(kbuf, vbuf); err != nil {
				t.Fatal(err)
			}
			copy(kbuf, "XXXXXXX")
			copy(vbuf, "YYYYYYY")
			g1 := get("value-1") // memtable- or map-served
			if err := s.Put([]byte("the-key"), []byte("value-2")); err != nil {
				t.Fatal(err)
			}
			flush()
			g2 := get("value-2") // run-served on the LSM
			if err := s.Put([]byte("the-key"), []byte("value-3")); err != nil {
				t.Fatal(err)
			}
			flush()
			if err := s.Delete([]byte("the-key")); err != nil {
				t.Fatal(err)
			}
			flush()
			if string(g1) != "value-1" || string(g2) != "value-2" {
				t.Fatalf("held results changed under later writes: %q, %q", g1, g2)
			}
			if _, ok, _ := s.Get([]byte("XXXXXXX")); ok {
				t.Fatal("the store kept the caller's key buffer")
			}
		})
	}
}
