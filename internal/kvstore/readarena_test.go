package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestRunReadKeptResultOutlivesRun: a run-served Get result is a region
// of the store's read arena, not of the pooled buffer its run region was
// read into, so it stays what it was after its run is compacted away and
// the file removed, after later reads fill chunks of their own, and after
// a GC. Its capacity ends where it does, so an append to it copies rather
// than writing over the result carved right behind it.
func TestRunReadKeptResultOutlivesRun(t *testing.T) {
	// Fanout and MaxRuns out of reach: only the test merges.
	s := openTestLSM(t, t.TempDir(), LSMOptions{SyncBytes: -1, Fanout: 100, MaxRuns: 100})
	defer s.Close()
	put := func(k string, v []byte) {
		t.Helper()
		if err := s.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put("kept", []byte("the kept value"))
	put("next", []byte("the next value"))
	flush()
	oldest := s.runs[0].path
	kept, ok, err := s.Get([]byte("kept"))
	if err != nil || !ok {
		t.Fatalf("Get(kept) = %q, %v, %v", kept, ok, err)
	}
	next, _, _ := s.Get([]byte("next"))
	if unsafe.Pointer(unsafe.SliceData(next)) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(kept)), len(kept)) {
		t.Fatal("two run-served results are not neighbours in one read-arena chunk")
	}
	if cap(kept) != len(kept) || cap(next) != len(next) {
		t.Fatalf("run-served results of %d B and %d B have capacity %d and %d", len(kept), len(next), cap(kept), cap(next))
	}
	if grown := append(kept, "XXXX"...); string(grown) != "the kept valueXXXX" || string(next) != "the next value" {
		t.Fatalf("append = %q, and the result behind it reads %q", grown, next)
	}

	// A newer run overwrites the key; merging the two removes the file
	// the kept result was read from.
	put("kept", []byte("a newer value"))
	filler := bytes.Repeat([]byte{0xEE}, 100)
	for i := 0; i < 1000; i++ {
		put(fmt.Sprintf("filler-%04d", i), filler)
	}
	flush()
	s.mu.Lock()
	err = s.compactRange(0, len(s.runs))
	s.mu.Unlock()
	if err != nil || len(s.runs) != 1 {
		t.Fatalf("merge: %v, %d runs left", err, len(s.runs))
	}
	if _, err := os.Stat(oldest); !os.IsNotExist(err) {
		t.Fatalf("the merged-away run %s: %v; want it removed", oldest, err)
	}

	// 4 000 run-served reads of 100 B fill a dozen chunks past kept's.
	for round := 0; round < 4; round++ {
		for i := 0; i < 1000; i++ {
			if v, ok, err := s.Get([]byte(fmt.Sprintf("filler-%04d", i))); err != nil || !ok || !bytes.Equal(v, filler) {
				t.Fatalf("Get(filler-%04d) = %d B, %v, %v", i, len(v), ok, err)
			}
		}
		runtime.GC()
	}
	if string(kept) != "the kept value" || string(next) != "the next value" {
		t.Fatalf("the kept run-served results now read %q, %q", kept, next)
	}
}

// TestRunReadsConcurrent: readers carve run-served Get results out of
// the read arena holding only the store's read lock, and keep some of
// them, while a writer overwrites keys, flushes and compacts. Under
// -race, two readers carving without the arena's own lock are a
// reported race, and so is a held result that a later read or a merge
// writes into.
func TestRunReadsConcurrent(t *testing.T) {
	s := openTestLSM(t, t.TempDir(), LSMOptions{MemTableBytes: 16 << 10, Fanout: 2, SyncBytes: -1})
	defer s.Close()
	const keys = 256
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	value := func(i, version int) []byte { return []byte(fmt.Sprintf("value-%03d-%06d", i, version)) }
	for i := 0; i < keys; i++ {
		if err := s.Put(key(i), value(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	probes := s.bloomProbes.Load()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			var copies []string
			for i := r; ; i += 7 {
				select {
				case <-done:
					for j, v := range held {
						if string(v) != copies[j] {
							t.Errorf("a held run-served result changed from %q to %q", copies[j], v)
						}
					}
					return
				default:
				}
				k := i % keys
				v, ok, err := s.Get(key(k))
				if err != nil || !ok || !bytes.HasPrefix(v, []byte(fmt.Sprintf("value-%03d-", k))) {
					t.Errorf("Get(%s) = %q, %v, %v", key(k), v, ok, err)
					return
				}
				if i%8 == 0 {
					held, copies = append(held, v), append(copies, string(v))
				}
			}
		}()
	}
	for version := 1; version <= 40; version++ {
		for i := version % 4; i < keys; i += 4 {
			if err := s.Put(key(i), value(i, version)); err != nil {
				t.Fatal(err)
			}
		}
		if version%5 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	if s.compactions.Load() == 0 || s.bloomProbes.Load() == probes {
		t.Fatalf("%d compactions, %d run probes: the writer must merge while readers read runs",
			s.compactions.Load(), s.bloomProbes.Load()-probes)
	}
}

// TestEmptyValueReadsBack: an empty value reads back present, empty and
// not nil wherever it is served from — Mem, the LSM's memtable, its WAL's
// replay, a flushed run and a reopened one — under an empty key too. A
// run-served one is the first carve of a read arena that has no chunk
// yet, and a memtable record of no bytes at all is carved from a
// memtable arena that has none either.
func TestEmptyValueReadsBack(t *testing.T) {
	keys := []string{"k", ""}
	lsm := func(t *testing.T, flush, reopen bool) Store {
		dir := t.TempDir()
		s := openTestLSM(t, dir, LSMOptions{SyncBytes: -1})
		for _, k := range keys {
			if err := s.Put([]byte(k), []byte{}); err != nil {
				t.Fatal(err)
			}
		}
		if flush {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if !reopen {
			return s
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return openTestLSM(t, dir, LSMOptions{SyncBytes: -1})
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store {
			m := NewMem()
			for _, k := range keys {
				m.Put([]byte(k), []byte{})
			}
			return m
		}},
		{"lsm memtable", func(t *testing.T) Store { return lsm(t, false, false) }},
		{"lsm wal replay", func(t *testing.T) Store { return lsm(t, false, true) }},
		{"lsm run", func(t *testing.T) Store { return lsm(t, true, false) }},
		{"lsm reopened run", func(t *testing.T) Store { return lsm(t, true, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			defer s.Close()
			for _, k := range keys {
				if v, ok, err := s.Get([]byte(k)); err != nil || !ok || v == nil || len(v) != 0 {
					t.Fatalf("Get(%q) = %q (nil: %v), %v, %v; want a present, empty, non-nil value", k, v, v == nil, ok, err)
				}
			}
		})
	}
}
