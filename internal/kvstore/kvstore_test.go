package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// storeFactories lets every conformance test run against both engines.
func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMem() },
		"lsm": func() Store {
			s, err := OpenLSM(t.TempDir(), LSMOptions{MemTableBytes: 1 << 12, MaxRuns: 3})
			if err != nil {
				t.Fatalf("open lsm: %v", err)
			}
			return s
		},
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()

			if _, ok, _ := s.Get([]byte("missing")); ok {
				t.Fatal("found missing key")
			}
			if err := s.Put([]byte("a"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get([]byte("a"))
			if err != nil || !ok || string(v) != "1" {
				t.Fatalf("get a = %q %v %v", v, ok, err)
			}
			if err := s.Put([]byte("a"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = s.Get([]byte("a"))
			if string(v) != "2" {
				t.Fatal("overwrite failed")
			}
			if err := s.Delete([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get([]byte("a")); ok {
				t.Fatal("delete failed")
			}
		})
	}
}

func TestStoreIterateOrdered(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			for _, k := range []string{"d", "a", "c", "b", "e"} {
				if err := s.Put([]byte(k), []byte("v"+k)); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			err := s.Iterate([]byte("b"), []byte("e"), func(k, v []byte) bool {
				got = append(got, string(k))
				if string(v) != "v"+string(k) {
					t.Fatalf("value mismatch for %s", k)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"b", "c", "d"}
			if len(got) != len(want) {
				t.Fatalf("got %v want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("got %v want %v", got, want)
				}
			}
		})
	}
}

func TestStoreIterateEarlyStop(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			for i := 0; i < 10; i++ {
				s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
			}
			n := 0
			s.Iterate(nil, nil, func(k, v []byte) bool {
				n++
				return n < 3
			})
			if n != 3 {
				t.Fatalf("visited %d, want 3", n)
			}
		})
	}
}

func TestStoreMatchesModel(t *testing.T) {
	// Property test: both engines must behave identically to a map model
	// under a random operation sequence.
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			model := make(map[string]string)
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("key-%03d", rng.Intn(200))
				switch rng.Intn(3) {
				case 0:
					v := fmt.Sprintf("val-%d", i)
					if err := s.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case 1:
					if err := s.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case 2:
					v, ok, err := s.Get([]byte(k))
					if err != nil {
						t.Fatal(err)
					}
					mv, mok := model[k]
					if ok != mok || (ok && string(v) != mv) {
						t.Fatalf("op %d: get %s = %q,%v want %q,%v", i, k, v, ok, mv, mok)
					}
				}
			}
			// Final full scan must equal the model.
			got := make(map[string]string)
			s.Iterate(nil, nil, func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			})
			if len(got) != len(model) {
				t.Fatalf("scan size %d, model %d", len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("scan mismatch at %s", k)
				}
			}
		})
	}
}

func TestMemCapEnforced(t *testing.T) {
	s := NewMemCapped(64)
	defer s.Close()
	if err := s.Put([]byte("k"), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k2"), make([]byte, 64)); err != ErrMemoryFull {
		t.Fatalf("want ErrMemoryFull, got %v", err)
	}
	// Overwrite shrinking usage must succeed.
	if err := s.Put([]byte("k"), make([]byte, 8)); err != nil {
		t.Fatalf("shrinking overwrite failed: %v", err)
	}
}

func TestMemStatsBytes(t *testing.T) {
	s := NewMem()
	defer s.Close()
	s.Put([]byte("abc"), []byte("12345"))
	if got := s.Stats().MemBytes; got != 8 {
		t.Fatalf("MemBytes = %d, want 8", got)
	}
	s.Delete([]byte("abc"))
	if got := s.Stats().MemBytes; got != 0 {
		t.Fatalf("MemBytes after delete = %d, want 0", got)
	}
}

// TestMemConcurrentGetPut: Mem.Get holds only the read lock, so readers
// run alongside each other while writers overwrite and delete the same
// keys, as parallel execution workers do. Under -race, a Get that wrote
// shared state is a reported race; every value read is its key's.
func TestMemConcurrentGetPut(t *testing.T) {
	s := NewMem()
	defer s.Close()
	const keys, rounds = 32, 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i%keys)) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := key(i + w)
				var err error
				if i%5 == 4 {
					err = s.Delete(k)
				} else {
					err = s.Put(k, append(append([]byte(nil), k...), fmt.Sprintf("/%d", i)...))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := key(i * (r + 1))
				v, ok, err := s.Get(k)
				if err != nil || ok && !bytes.HasPrefix(v, append(k, '/')) {
					t.Errorf("Get(%s) = %q, %v, %v", k, v, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestClosedStoreErrors(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Close()
			if err := s.Put([]byte("k"), []byte("v")); err != ErrClosed {
				t.Fatalf("Put on closed = %v", err)
			}
			if _, _, err := s.Get([]byte("k")); err != ErrClosed {
				t.Fatalf("Get on closed = %v", err)
			}
		})
	}
}

func TestLSMFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{MemTableBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Delete([]byte("k050"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get([]byte("k042"))
	if !ok || string(v) != "v42" {
		t.Fatalf("reopen lost data: %q %v", v, ok)
	}
	if _, ok, _ := s2.Get([]byte("k050")); ok {
		t.Fatal("tombstone lost on reopen")
	}
}

func TestLSMWALRecoveryWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{MemTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("durable"), []byte("yes"))
	// Simulate crash: close without explicit flush (Close flushes the WAL
	// buffer but leaves the memtable unflushed; reopen must replay WAL).
	s.Close()

	s2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get([]byte("durable"))
	if !ok || string(v) != "yes" {
		t.Fatal("WAL replay lost write")
	}
}

func TestLSMCompactionReducesRuns(t *testing.T) {
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemTableBytes: 256, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i%50)), bytes.Repeat([]byte{byte(i)}, 32))
	}
	s.mu.RLock()
	nruns := len(s.runs)
	s.mu.RUnlock()
	if nruns > 3 {
		t.Fatalf("compaction not keeping runs bounded: %d", nruns)
	}
	// All 50 live keys must still resolve to their latest value.
	for i := 450; i < 500; i++ {
		k := fmt.Sprintf("k%04d", i%50)
		v, ok, err := s.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("lost key %s: %v", k, err)
		}
		if v[0] != byte(i) {
			t.Fatalf("stale value for %s: got %d want %d", k, v[0], byte(i))
		}
	}
}

func TestLSMDiskBytesGrow(t *testing.T) {
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemTableBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), make([]byte, 100))
	}
	if s.Stats().DiskBytes == 0 {
		t.Fatal("disk bytes not accounted")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(k string, v []byte, del bool) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeRecord(w, k, v, del); err != nil || w.Flush() != nil {
			return false
		}
		k2, v2, del2, err := readRecord(bufio.NewReader(&buf), nil)
		return err == nil && k2 == k && bytes.Equal(v2, v) && del2 == del
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
