package kvstore

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// TestPutAllocBudget is the storage engine's write budget outside a
// flush, fresh key or overwrite. Mem allocates the record it stores —
// key and value in one slab — and nothing else. The LSM carves the
// record out of its memtable arena instead: the median Put allocates
// nothing, and 10 000 Puts allocate one chunk per 32 KiB of records.
func TestPutAllocBudget(t *testing.T) {
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
	}
	for name, st := range map[string]Store{"lsm": s, "mem": NewMem()} {
		budget := map[string]uint64{"lsm": 0, "mem": 1}[name]
		i := 0
		fresh := medianAllocs(101, func() {
			if err := st.Put(keys[i], val); err != nil {
				t.Fatal(err)
			}
			i++
		})
		overwrite := medianAllocs(101, func() {
			if err := st.Put(keys[0], val); err != nil {
				t.Fatal(err)
			}
		})
		if fresh != budget || overwrite != budget {
			t.Errorf("%s: %d allocations per fresh-key Put, %d per overwrite; budget %d", name, fresh, overwrite, budget)
		}
	}

	// Every key once, then a flush: clear keeps the map's buckets, so
	// the second pass counts the arena's chunks and nothing else.
	put := func() {
		for _, k := range keys {
			if err := s.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	put()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	put()
	runtime.ReadMemStats(&after)
	const fixed = 4 // 44 allocations when written: 43 chunks and one more
	bytes := len(keys) * (len(keys[0]) + len(val))
	n, budget := after.Mallocs-before.Mallocs, uint64(bytes/arenaChunk+fixed)
	t.Logf("%d allocations for %d Puts of %d B; budget %d", n, len(keys), bytes, budget)
	if n > budget {
		t.Fatalf("%d allocations for %d Puts of %d B; budget %d", n, len(keys), bytes, budget)
	}
}

// TestPutDoesNotKeepArguments: one key buffer and one value buffer,
// rewritten between Puts the way the trie reuses its node-key scratch,
// leave every record as it was put, through Get and Iterate, on both
// engines, across flushes and merges on the LSM.
func TestPutDoesNotKeepArguments(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			model := map[string]string{}
			var kbuf, vbuf []byte
			for i := 0; i < 300; i++ {
				kbuf = fmt.Appendf(kbuf[:0], "key-%03d", i%200)
				vbuf = fmt.Appendf(vbuf[:0], "value-%d-%s", i, bytes.Repeat([]byte{'v'}, i%50))
				if err := s.Put(kbuf, vbuf); err != nil {
					t.Fatal(err)
				}
				model[string(kbuf)] = string(vbuf)
			}
			for i := range kbuf {
				kbuf[i] = 'X'
			}
			for i := range vbuf {
				vbuf[i] = 'Y'
			}
			for k, want := range model {
				if got, ok, err := s.Get([]byte(k)); err != nil || !ok || string(got) != want {
					t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, got, ok, err, want)
				}
			}
			n := 0
			err := s.Iterate(nil, nil, func(k, v []byte) bool {
				if want, ok := model[string(k)]; !ok || string(v) != want {
					t.Fatalf("Iterate: %s = %q, want %q (in model: %v)", k, v, want, ok)
				}
				n++
				return true
			})
			if err != nil || n != len(model) {
				t.Fatalf("Iterate: %d records, %v; want %d", n, err, len(model))
			}
		})
	}
}

// TestLongKeyRefused: a run's sparse index stores key lengths as uint16,
// so the LSM refuses a longer key at the WAL rather than acknowledge a
// record whose flush would leave the store unopenable. The longest key
// it accepts round-trips through a flush and a reopen from the index's
// first slot, where the parent commit's long key broke OpenLSM.
func TestLongKeyRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bytes.Repeat([]byte{'a'}, 70_000), []byte("v")); err == nil {
		t.Fatal("a 70 000-byte key was accepted")
	}
	longest := bytes.Repeat([]byte{'b'}, math.MaxUint16)
	for _, k := range [][]byte{longest, []byte("c")} {
		if err := s.Put(k, []byte("kept")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	for _, k := range [][]byte{longest, []byte("c")} {
		if v, ok, err := s.Get(k); err != nil || !ok || string(v) != "kept" {
			t.Fatalf("Get(%d-byte key) = %q, %v, %v", len(k), v, ok, err)
		}
	}
}

// TestReplayAllocBudget: reopening a WAL reads its records into the
// memtable's arena, one allocation per 32 KiB chunk — the parent commit
// made one per record, and before it four (the header, the key bytes,
// the key string, the value) — plus a fixed cost for the open itself
// and the memtable's growth.
func TestReplayAllocBudget(t *testing.T) {
	const records, fixed = 1000, 100 // 59 when written, besides the chunks
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%036d", i)) }
	val := make([]byte, 100)
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := s.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if runs, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(runs) != 0 {
		t.Fatalf("the fill flushed %d runs; the WAL must hold every record", len(runs))
	}
	avg := testing.AllocsPerRun(5, func() {
		s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.mem) != records {
			t.Fatalf("replayed %d records, want %d", len(s.mem), records)
		}
		s.Close()
	})
	chunks := records*(len(key(0))+len(val))/arenaChunk + 1
	t.Logf("%.0f allocations to reopen a WAL of %d records, %d chunks of them", avg, records, chunks)
	if budget := chunks + fixed; avg > float64(budget) {
		t.Fatalf("%.0f allocations to reopen a WAL of %d records, budget %d", avg, records, budget)
	}
}

// TestIndexKeysSurviveBufferRollover: a run writer copies its index keys
// into a buffer that it replaces, not grows in place, when the next key
// does not fit, because the keys already copied are views of it. Flush
// long keys until it has been replaced several times; every index key
// and both bounds must still be the record keys they copied, equal to
// what a reopen reads back from the file, and every key must be found.
func TestIndexKeysSurviveBufferRollover(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1, MemTableBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 1000) // ascending: the zero-padded index leads
	for i := range keys {
		keys[i] = fmt.Sprintf("%04d-%s", i, bytes.Repeat([]byte{'k'}, 150+i%90))
		if err := s.Put([]byte(keys[i]), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	w := s.runs[0]
	var want []string
	for i := 0; i < len(keys); i += indexStride {
		want = append(want, keys[i])
	}
	want = append(want, keys[len(keys)-1])
	buffers := 1
	for i, k := range w.idxKeys {
		if i < len(want) && k != want[i] {
			t.Fatalf("index key %d = %.12q…, want %.12q…", i, k, want[i])
		}
		if i == 0 {
			continue
		}
		if prev := w.idxKeys[i-1]; unsafe.Pointer(unsafe.StringData(k)) != unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev)) {
			buffers++ // not carved right behind its predecessor
		}
	}
	if len(w.idxKeys) != len(want) || w.minKey != keys[0] || w.maxKey != keys[len(keys)-1] {
		t.Fatalf("%d index keys (want %d), bounds %.12q…%.12q…", len(w.idxKeys), len(want), w.minKey, w.maxKey)
	}
	if buffers < 4 {
		t.Fatalf("index keys carved from %d buffers: the test no longer crosses a rollover", buffers)
	}
	idxKeys, minKey, maxKey := w.idxKeys, w.minKey, w.maxKey
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.runs[0]
	if !slices.Equal(r.idxKeys, idxKeys) || r.minKey != minKey || r.maxKey != maxKey {
		t.Fatalf("reopened run: %d index keys, bounds %.12q…%.12q…; written: %d, %.12q…%.12q…",
			len(r.idxKeys), r.minKey, r.maxKey, len(idxKeys), minKey, maxKey)
	}
	for i, k := range keys {
		if v, ok, err := s.Get([]byte(k)); err != nil || !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("Get(%.12q…) = %x, %v, %v after reopen", k, v, ok, err)
		}
	}
}
