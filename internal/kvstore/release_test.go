//go:build go1.24

// The release tests watch records through weak pointers (package weak,
// Go 1.24); go.mod allows older toolchains, which skip this file.

package kvstore

import (
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// TestOverwriteReleasesRecords overwrites one key 10 000 times with 1 KB
// values: the heap after a GC grows by about one record, not ten
// megabytes, and the first record is collected — the map's key string is
// the head of a record slab, so a store that kept the first key would
// keep its whole record.
func TestOverwriteReleasesRecords(t *testing.T) {
	stores := map[string]Store{"mem": NewMem()}
	lsm, err := OpenLSM(t.TempDir(), LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	stores["lsm"] = lsm
	for name, s := range stores {
		key, val := []byte("the-overwritten-key"), make([]byte, 1<<10)
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		first := weakValue(t, s, key)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 10_000; i++ {
			val[0] = byte(i)
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
			t.Errorf("%s: heap grew %d B over 10 000 overwrites of one 1 KB record", name, grew)
		}
		if first.Value() != nil {
			t.Errorf("%s: the first record is still reachable after 10 000 overwrites", name)
		}
	}
}

// weakValue is a weak pointer into the record s holds for key; the
// stored value is the tail of the record's one allocation.
func weakValue(t *testing.T, s Store, key []byte) weak.Pointer[byte] {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil || !ok || len(v) == 0 {
		t.Fatalf("Get(%s) = %d bytes, %v, %v", key, len(v), ok, err)
	}
	return weak.Make(&v[0])
}

// TestFlushReleasesMemtable: a flushed run keeps its own copies of its
// index and bound keys and only hashes of the rest, so after a flush and
// a GC no record the memtable held is reachable — not through the run's
// sparse index, its min/max keys or anything else.
func TestFlushReleasesMemtable(t *testing.T) {
	s, err := OpenLSM(t.TempDir(), LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var records []weak.Pointer[byte]
	for i := 0; i < 100; i++ { // seven index slots and the last key
		key := []byte(fmt.Sprintf("key-%03d", i))
		if err := s.Put(key, []byte(fmt.Sprintf("a value long enough not to be tiny, %d", i))); err != nil {
			t.Fatal(err)
		}
		records = append(records, weakValue(t, s, key))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for i, p := range records {
		if p.Value() != nil {
			t.Errorf("record %d of the flushed memtable is still reachable", i)
		}
	}
	if r := s.runs[0]; r.minKey != "key-000" || r.maxKey != "key-099" || len(r.idxKeys) != 8 {
		t.Fatalf("run bounds %q..%q, %d index keys", r.minKey, r.maxKey, len(r.idxKeys))
	}
}
