package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func openTestLSM(t *testing.T, dir string, opts LSMOptions) *LSM {
	t.Helper()
	s, err := OpenLSM(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOverwriteBoundsWAL: the memtable's size counts every version
// handed to it, so 100 000 overwrites of one 100 B value flush each time
// MemTableBytes of them pile up, and the WAL — and with it the replay on
// the next open — never holds more than one memtable: MemTableBytes of
// keys and values plus one record, each record with its 9-byte header.
// A size that counted live bytes stayed at one record, never flushed,
// and let the WAL grow to 11 MB.
func TestOverwriteBoundsWAL(t *testing.T) {
	const memTable = 4 << 20
	opts := LSMOptions{MemTableBytes: memTable, SyncBytes: -1}
	dir := t.TempDir()
	s := openTestLSM(t, dir, opts)
	key, val := []byte("the-key"), make([]byte, 100)
	rec := int64(len(key) + len(val))
	bound := (memTable/rec + 1) * (9 + rec)
	for i := 0; i < 100_000; i++ {
		binary.LittleEndian.PutUint32(val, uint32(i))
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if s.walSize > bound {
			t.Fatalf("after %d overwrites: a %d B WAL, %d B memtable, %d flushes; bound %d B",
				i+1, s.walSize, s.memBytes, s.flushes.Load(), bound)
		}
	}
	if s.flushes.Load() == 0 {
		t.Fatal("100 000 overwrites never flushed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(s.walPath())
	if err != nil || st.Size() > bound {
		t.Fatalf("the closed WAL: %v, %v; bound %d B", st.Size(), err, bound)
	}
	s = openTestLSM(t, dir, opts)
	defer s.Close()
	if s.memBytes > memTable {
		t.Fatalf("the reopen replayed %d B of keys and values, over the %d B memtable", s.memBytes, memTable)
	}
	if v, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("Get after reopen = %x, %v, %v; want %x", v, ok, err, val)
	}
}

// TestArenaAppendToGetResult: two memtable records sit side by side in
// one chunk, and a Get result's capacity ends where its record does, so
// appending to it copies instead of writing over its neighbour.
func TestArenaAppendToGetResult(t *testing.T) {
	s := openTestLSM(t, t.TempDir(), LSMOptions{SyncBytes: -1})
	defer s.Close()
	for _, kv := range [][2]string{{"a", "first"}, {"b", "second"}} {
		if err := s.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	ga, _, _ := s.Get([]byte("a"))
	gb, _, _ := s.Get([]byte("b"))
	next := unsafe.Add(unsafe.Pointer(unsafe.SliceData(ga)), len(ga)+len("b"))
	if unsafe.Pointer(unsafe.SliceData(gb)) != next {
		t.Fatal("the two records are not neighbours in one chunk")
	}
	if cap(ga) != len(ga) {
		t.Fatalf("a Get result of %d B has capacity %d", len(ga), cap(ga))
	}
	grown := append(ga, "XXXXXXXXXXXX"...)
	if string(grown) != "firstXXXXXXXXXXXX" {
		t.Fatalf("append = %q", grown)
	}
	for _, kv := range [][2]string{{"a", "first"}, {"b", "second"}} {
		if v, ok, err := s.Get([]byte(kv[0])); err != nil || !ok || string(v) != kv[1] {
			t.Fatalf("Get(%s) after the append = %q, %v, %v; want %q", kv[0], v, ok, err, kv[1])
		}
	}
}

// TestArenaChunkBoundaries: records of many sizes fill several chunks,
// each record that does not fit a chunk's tail starting the next chunk,
// and a record over a quarter chunk gets a block of its own without
// retiring the current chunk. Every record reads back exactly through
// Get and Iterate, from the memtable and, after a flush, from the run.
func TestArenaChunkBoundaries(t *testing.T) {
	s := openTestLSM(t, t.TempDir(), LSMOptions{SyncBytes: -1})
	defer s.Close()
	model := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := s.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	rng := rand.New(rand.NewSource(1))
	chunks := 0
	for i := 0; i < 200; i++ {
		tail := len(s.arena)
		v := make([]byte, rng.Intn(1400))
		rng.Read(v)
		put(fmt.Sprintf("key-%04d", i), v)
		if len(s.arena) > tail {
			chunks++
		}
	}
	if chunks < 4 {
		t.Fatalf("%d chunks; the records must straddle several chunk boundaries", chunks)
	}

	tail := len(s.arena)
	put("large", bytes.Repeat([]byte{'L'}, arenaChunk/4+1))
	if len(s.arena) != tail {
		t.Fatalf("a large record moved the current chunk's tail from %d B to %d B", tail, len(s.arena))
	}
	small := []byte("after the large one")
	put("small", small)
	if want := tail - len("small") - len(small); len(s.arena) != want {
		t.Fatalf("the record after the large one left a %d B tail, want %d B from the same chunk", len(s.arena), want)
	}

	check := func(from string) {
		t.Helper()
		for k, want := range model {
			if v, ok, err := s.Get([]byte(k)); err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: Get(%s) = %d B, %v, %v; want %d B", from, k, len(v), ok, err, len(want))
			}
		}
		n := 0
		err := s.Iterate(nil, nil, func(k, v []byte) bool {
			if want, ok := model[string(k)]; !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: Iterate: %s = %d B, want %d B (in model: %v)", from, k, len(v), len(want), ok)
			}
			n++
			return true
		})
		if err != nil || n != len(model) {
			t.Fatalf("%s: Iterate: %d records, %v; want %d", from, n, err, len(model))
		}
	}
	check("memtable")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("run")
}

// TestArenaKeptResultOutlivesFlush: a Get result kept past the flush
// that drops its chunk keeps the chunk alive and its bytes intact while
// later memtables allocate, flush and drop chunks of their own.
func TestArenaKeptResultOutlivesFlush(t *testing.T) {
	s := openTestLSM(t, t.TempDir(), LSMOptions{MemTableBytes: 64 << 10, SyncBytes: -1})
	defer s.Close()
	if err := s.Put([]byte("kept"), []byte("the kept value")); err != nil {
		t.Fatal(err)
	}
	kept, _, _ := s.Get([]byte("kept"))
	filler := bytes.Repeat([]byte{0xEE}, 100)
	for round := 0; round < 8; round++ {
		for i := 0; i < 1000; i++ {
			if err := s.Put([]byte(fmt.Sprintf("filler-%04d", i)), filler); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
	}
	if s.flushes.Load() < 8 {
		t.Fatalf("%d flushes; the filler must retire the kept record's chunk", s.flushes.Load())
	}
	if string(kept) != "the kept value" {
		t.Fatalf("the kept Get result now reads %q", kept)
	}
}

// TestArenaConcurrentReaders: readers hold and read Get results while a
// writer carves new records out of the same chunks and flushes. Under
// -race, a Put that wrote into a region it had handed out, or a reader
// that read past its record, is a reported race.
func TestArenaConcurrentReaders(t *testing.T) {
	s := openTestLSM(t, t.TempDir(), LSMOptions{MemTableBytes: 32 << 10, SyncBytes: -1})
	defer s.Close()
	const keys = 64
	value := func(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }
	for i := 0; i < keys; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	defer wg.Wait()
	defer close(done)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			var copies []string
			for i := 0; ; i++ {
				select {
				case <-done:
					for j, v := range held {
						if string(v) != copies[j] {
							t.Errorf("a held Get result changed from %q to %q", copies[j], v)
						}
					}
					return
				default:
				}
				v, ok, err := s.Get([]byte(fmt.Sprintf("key-%02d", i%keys)))
				if err != nil || !ok || !bytes.HasPrefix(v, []byte("value-")) {
					t.Errorf("Get = %q, %v, %v", v, ok, err)
					return
				}
				if i%16 == 0 {
					held, copies = append(held, v), append(copies, string(v))
				}
			}
		}()
	}
	for i := keys; i < 20_000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i%keys)), value(i)); err != nil {
			t.Fatal(err)
		}
	}
}
