package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLSMTornWALRecovery simulates a crash mid-append: the WAL is
// truncated inside its last record, and reopening must replay every
// complete record, drop the torn tail, and leave the log appendable.
func TestLSMTornWALRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: each record is 9 + len(k) + len(v) bytes, so
	// cutting 5 bytes leaves key-09's record incomplete.
	wal := filepath.Join(dir, "wal.log")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatalf("reopen after torn WAL: %v", err)
	}
	for i := 0; i < 9; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v, ok, err := s2.Get([]byte(k))
		if err != nil || !ok || string(v) != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("committed write %s lost after recovery: %q %v %v", k, v, ok, err)
		}
	}
	if _, ok, _ := s2.Get([]byte("key-09")); ok {
		t.Fatal("torn tail record survived recovery")
	}

	// The truncated log must accept appends and stay recoverable.
	if err := s2.Put([]byte("key-09"), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	v, ok, _ := s3.Get([]byte("key-09"))
	if !ok || string(v) != "rewritten" {
		t.Fatalf("post-recovery append lost: %q %v", v, ok)
	}
	v, ok, _ = s3.Get([]byte("key-00"))
	if !ok || string(v) != "value-00" {
		t.Fatal("recovered write lost on second reopen")
	}
}

// TestMemLSMEquivalence is the cross-backend property test: a Mem store
// and an LSM store (sized to flush and compact constantly) driven by
// the same randomized Put/Delete/Iterate sequence must stay
// byte-identical, including range-scan contents and order.
func TestMemLSMEquivalence(t *testing.T) {
	mem := NewMem()
	defer mem.Close()
	lsm, err := OpenLSM(t.TempDir(), LSMOptions{MemTableBytes: 1 << 10, MaxRuns: 4, Fanout: 2, SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()

	rng := rand.New(rand.NewSource(7))
	key := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(300))) }
	for i := 0; i < 5000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			k, v := key(), []byte(fmt.Sprintf("val-%d", i))
			if err := mem.Put(k, v); err != nil {
				t.Fatal(err)
			}
			if err := lsm.Put(k, v); err != nil {
				t.Fatal(err)
			}
		case 6, 7:
			k := key()
			if err := mem.Delete(k); err != nil {
				t.Fatal(err)
			}
			if err := lsm.Delete(k); err != nil {
				t.Fatal(err)
			}
		case 8:
			k := key()
			mv, mok, _ := mem.Get(k)
			lv, lok, err := lsm.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if mok != lok || string(mv) != string(lv) {
				t.Fatalf("op %d: Get(%s) diverges: mem %q,%v lsm %q,%v", i, k, mv, mok, lv, lok)
			}
		default:
			// Random range scan; nil bounds sometimes.
			var start, end []byte
			if rng.Intn(2) == 0 {
				start = key()
			}
			if rng.Intn(2) == 0 {
				end = key()
			}
			type kv struct{ k, v string }
			var ms, ls []kv
			mem.Iterate(start, end, func(k, v []byte) bool {
				ms = append(ms, kv{string(k), string(v)})
				return true
			})
			if err := lsm.Iterate(start, end, func(k, v []byte) bool {
				ls = append(ls, kv{string(k), string(v)})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(ms) != len(ls) {
				t.Fatalf("op %d: scan [%q,%q) sizes diverge: mem %d lsm %d", i, start, end, len(ms), len(ls))
			}
			for j := range ms {
				if ms[j] != ls[j] {
					t.Fatalf("op %d: scan entry %d diverges: mem %v lsm %v", i, j, ms[j], ls[j])
				}
			}
		}
	}
}

// TestLSMBloomSkipsNonResident checks the acceptance bar for the run
// filters: with keys striped across several runs, probes for keys a run
// does not hold (but whose range covers them) must be answered by the
// bloom filter — without touching data blocks — at least 90% of the
// time.
func TestLSMBloomSkipsNonResident(t *testing.T) {
	// Fanout 6 over 4 runs: no tiered window forms, so the four striped
	// runs stay separate.
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemTableBytes: 1 << 30, MaxRuns: 10, Fanout: 6, SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const stripes, total = 4, 4000
	for stripe := 0; stripe < stripes; stripe++ {
		for i := stripe; i < total; i += stripes {
			if err := s.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Counters(); c["store.flushes"] != stripes {
		t.Fatalf("flushes = %d, want %d", c["store.flushes"], stripes)
	}

	for i := 0; i < total; i++ {
		v, ok, err := s.Get([]byte(fmt.Sprintf("k%06d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("lost key %d across runs: %q %v %v", i, v, ok, err)
		}
	}

	c := s.Counters()
	probes, skips := c["store.bloom_probes"], c["store.bloom_skips"]
	// Every Get ends with one resident probe; all earlier probes hit runs
	// that do not hold the key.
	nonResident := probes - total
	if nonResident == 0 {
		t.Fatal("striped layout produced no cross-run probes")
	}
	if ratio := float64(skips) / float64(nonResident); ratio < 0.90 {
		t.Fatalf("bloom skipped %.1f%% of %d non-resident probes, want >= 90%%",
			100*ratio, nonResident)
	}
}

// TestLSMCrashCloseTornTail is the process-kill simulation: CrashClose
// abandons the buffered WAL tail and skips the final fsync, exactly like
// a SIGKILL between appends. A large unsynced record is left genuinely
// torn on disk (bufio flushes mid-record once the value outgrows the
// buffer), and reopening must recover the synced prefix, drop the torn
// record, and leave the store appendable.
func TestLSMCrashCloseTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{}) // default 256 KiB group fsync
	if err != nil {
		t.Fatal(err)
	}
	// Crosses the group-sync threshold, so this record is on disk and
	// fsynced before the crash.
	durable := make([]byte, 300<<10)
	for i := range durable {
		durable[i] = byte(i)
	}
	if err := s.Put([]byte("durable"), durable); err != nil {
		t.Fatal(err)
	}
	// Below the sync threshold but above the 64 KiB WAL buffer: bufio
	// flushes the record's head to disk and keeps its tail in memory,
	// which CrashClose then abandons — a true torn record.
	if err := s.Put([]byte("torn"), make([]byte, 100<<10)); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashClose(); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashClose(); err != nil {
		t.Fatalf("CrashClose not idempotent: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after CrashClose: %v", err)
	}

	s2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	v, ok, err := s2.Get([]byte("durable"))
	if err != nil || !ok || len(v) != len(durable) {
		t.Fatalf("synced record lost: ok=%v err=%v len=%d", ok, err, len(v))
	}
	for i := range v {
		if v[i] != byte(i) {
			t.Fatalf("synced record corrupted at byte %d", i)
		}
	}
	if _, ok, _ := s2.Get([]byte("torn")); ok {
		t.Fatal("torn record survived the crash")
	}

	// The truncated WAL must accept appends and survive a clean cycle.
	if err := s2.Put([]byte("after"), []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, ok, _ := s3.Get([]byte("after")); !ok || string(v) != "recovery" {
		t.Fatalf("post-recovery append lost: %q %v", v, ok)
	}
}

// flipLengthByte sets the high byte of a record's key length (field 4)
// or value length (field 8) in the record that starts at off, which
// turns the length into ~4 GiB.
func flipLengthByte(t *testing.T, path string, off int64, field int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xff}, off+field); err != nil {
		t.Fatal(err)
	}
}

// allocatedDuring reports the bytes fn allocated; a length field read
// back as ~4 GiB and passed to make would show up here (or panic).
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLSMCorruptLengthField damages one length field on disk, in the
// WAL's last record and in a run's first record. The WAL must come
// back truncated to its last good record, like a torn tail; a run's
// data region has a fixed extent, so there the damage must surface as
// ErrCorruptRecord from the read and from a compaction over the run —
// never as "absent" or end-of-run, which would drop the records that
// follow — and in neither place may the bogus length be allocated.
func TestLSMCorruptLengthField(t *testing.T) {
	const recLen = 9 + 6 + 8 // "key-NN" -> "value-NN"
	fill := func(t *testing.T, s *LSM, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, field := range []int64{4, 8} {
		t.Run(fmt.Sprintf("wal/field%d", field), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, s, 10)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			wal := filepath.Join(dir, "wal.log")
			flipLengthByte(t, wal, 9*recLen, field)

			var s2 *LSM
			if got := allocatedDuring(func() { s2, err = OpenLSM(dir, LSMOptions{SyncBytes: -1}) }); got > maxRecordLen {
				t.Fatalf("reopen allocated %d bytes", got)
			}
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			if st, err := os.Stat(wal); err != nil || st.Size() != 9*recLen {
				t.Fatalf("wal is %d bytes (%v), want the 9 good records = %d", st.Size(), err, 9*recLen)
			}
			for i := 0; i < 10; i++ {
				v, ok, err := s2.Get([]byte(fmt.Sprintf("key-%02d", i)))
				if want := i < 9; err != nil || ok != want || (ok && string(v) != fmt.Sprintf("value-%02d", i)) {
					t.Fatalf("key-%02d after recovery: %q present=%v err=%v", i, v, ok, err)
				}
			}
		})

		t.Run(fmt.Sprintf("run/field%d", field), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, s, 64) // four index regions of 16 records
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			flipLengthByte(t, filepath.Join(dir, "run-00000000.sst"), 0, field)

			// MaxRuns 1 forces a merge of every run at the next flush.
			s2, err := OpenLSM(dir, LSMOptions{SyncBytes: -1, MaxRuns: 1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			got := allocatedDuring(func() {
				if _, _, err := s2.Get([]byte("key-05")); !errors.Is(err, ErrCorruptRecord) {
					t.Errorf("read through the damaged record: err = %v, want ErrCorruptRecord", err)
				}
				if err := s2.Put([]byte("zzz"), []byte("new")); err != nil {
					t.Error(err)
				}
				if err := s2.Flush(); !errors.Is(err, ErrCorruptRecord) {
					t.Errorf("compaction over the damaged run: err = %v, want ErrCorruptRecord", err)
				}
			})
			if got > maxRecordLen {
				t.Fatalf("read and compaction allocated %d bytes", got)
			}
			// The failed merge replaced nothing: regions past the damage
			// still answer, and so does the run the flush just wrote.
			for _, k := range []string{"key-16", "key-63", "zzz"} {
				if _, ok, err := s2.Get([]byte(k)); err != nil || !ok {
					t.Fatalf("%s after the failed compaction: present=%v err=%v", k, ok, err)
				}
			}
		})
	}
}

// TestLSMCorruptIndexCount overwrites the sparse index's entry count in
// a real flushed run with 2^32-1. Reopening must report the run as
// corrupt, and must do so before sizing the index slices from the count
// (which would ask for ~100 GiB).
func TestLSMCorruptIndexCount(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "run-00000000.sst")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var footer [runFooterSz]byte
	if _, err := f.ReadAt(footer[:], st.Size()-runFooterSz); err != nil {
		t.Fatal(err)
	}
	// The index section follows the records and the bloom filter.
	idxOff := int64(binary.LittleEndian.Uint64(footer[0:8]) + binary.LittleEndian.Uint64(footer[8:16]))
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, idxOff); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var s2 *LSM
	got := allocatedDuring(func() { s2, err = OpenLSM(dir, LSMOptions{SyncBytes: -1}) })
	if err == nil {
		s2.Close()
		t.Fatal("reopen accepted a run whose index count exceeds its section")
	}
	if got > 1<<20 {
		t.Fatalf("reopen allocated %d bytes from the bogus count", got)
	}
}

// flushedRun64 writes key-00..key-63 (four full index regions) with the
// given values into a fresh store, flushes them into one run and closes
// the store, returning its directory and the run file for a test to damage.
func flushedRun64(t *testing.T, value func(i int) string) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte(value(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "run-00000000.sst")
}

// TestLSMCorruptIndexEntries rewrites, in a real flushed run, what a
// point read trusts the index and footer for: an entry's offset (it
// sizes the region buffer and positions the read), an entry's key (it
// steers the search) and the footer's record count. Reopening must
// report each as a wrapped open error. Before the check existed all of
// them opened: a decreasing offset made a negative region length (a
// panic in the read), one past the data read the bloom filter as
// records, and the count was converted to int unchecked.
func TestLSMCorruptIndexEntries(t *testing.T) {
	dir, path := flushedRun64(t, func(int) string { return "v" })
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := len(good) - runFooterSz
	dataLen := binary.LittleEndian.Uint64(good[footer:])
	// Five entries (records 0, 16, 32, 48 and the last, 63) of
	// klen(2) "key-NN" off(8) follow the 4-byte entry count.
	entry := func(i int) int {
		return int(dataLen+binary.LittleEndian.Uint64(good[footer+8:])) + 4 + 16*i
	}
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	off := func(i int) uint64 { return binary.LittleEndian.Uint64(good[entry(i)+8:]) }

	for name, patch := range map[string]struct {
		at    int
		bytes []byte
	}{
		"first offset not zero":      {entry(0) + 8, u64(1)},
		"offset decreases":           {entry(2) + 8, u64(off(1) - 1)},
		"offset repeats":             {entry(2) + 8, u64(off(1))},
		"offset at the data's end":   {entry(4) + 8, u64(dataLen)},
		"offset far past the file":   {entry(4) + 8, u64(1 << 40)},
		"negative offset":            {entry(3) + 8, u64(1 << 63)},
		"keys out of order":          {entry(2) + 2, []byte("key-00")},
		"zero record count":          {footer + 24, u64(0)},
		"negative record count":      {footer + 24, u64(1 << 63)},
		"record count over the data": {footer + 24, u64(dataLen)},
		"fewer records than entries": {footer + 24, u64(4)},
	} {
		bad := append([]byte{}, good...)
		copy(bad[patch.at:], patch.bytes)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var s2 *LSM
		var err error
		got := allocatedDuring(func() { s2, err = OpenLSM(dir, LSMOptions{SyncBytes: -1}) })
		if err == nil {
			s2.Close()
			t.Errorf("%s: reopen accepted the run", name)
		} else if !strings.Contains(err.Error(), "open run") {
			t.Errorf("%s: %v is not an open-run error", name, err)
		}
		if got > 1<<20 {
			t.Errorf("%s: reopen allocated %d bytes", name, got)
		}
	}

	// The honest file still opens and every region still reads.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatalf("reopen of the restored run: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 64; i++ {
		if v, ok, err := s2.Get([]byte(fmt.Sprintf("key-%02d", i))); err != nil || !ok || string(v) != "v" {
			t.Fatalf("restored run: Get(key-%02d) = %q, %v, %v", i, v, ok, err)
		}
	}
}

// TestLSMCorruptFooterLengths rewrites the three section lengths in a
// real run's footer: negative ones, huge ones, pairs that cancel so the
// sum still equals the file size, and swaps of two honest values.
// Reopening must report each as corrupt — never panic, and never size the
// bloom+index buffer from a length that does not fit the file.
func TestLSMCorruptFooterLengths(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run-00000000.sst")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := good[len(good)-runFooterSz:]
	data := int64(binary.LittleEndian.Uint64(footer[0:8]))
	bloom := int64(binary.LittleEndian.Uint64(footer[8:16]))
	idx := int64(binary.LittleEndian.Uint64(footer[16:24]))

	const huge = 1 << 40
	for name, l := range map[string][3]int64{
		"negative data":           {-1, bloom, idx},
		"negative bloom":          {data, -8, idx},
		"negative index":          {data, bloom, -idx},
		"huge data":               {huge, bloom, idx},
		"huge bloom":              {data, huge, idx},
		"huge index":              {data, bloom, math.MaxInt64},
		"data and bloom cancel":   {data - huge, bloom + huge, idx},
		"bloom and index cancel":  {data, bloom + huge, idx - huge},
		"data and index cancel":   {data + huge, bloom, idx - huge},
		"all bits set":            {-1, -1, -1},
		"data and bloom swapped":  {bloom, data, idx},
		"bloom and index swapped": {data, idx, bloom},
		"data and index swapped":  {idx, bloom, data},
		"one byte moved":          {data - 1, bloom + 1, idx},
	} {
		bad := append([]byte{}, good...)
		for i, v := range l {
			binary.LittleEndian.PutUint64(bad[len(bad)-runFooterSz+8*i:], uint64(v))
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var s2 *LSM
		var err error
		got := allocatedDuring(func() { s2, err = OpenLSM(dir, LSMOptions{SyncBytes: -1}) })
		if err == nil {
			s2.Close()
			t.Errorf("%s: reopen accepted the run", name)
		}
		if got > 1<<20 {
			t.Errorf("%s: reopen allocated %d bytes from the bogus lengths", name, got)
		}
	}

	// The honest footer still opens.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenLSM(dir, LSMOptions{SyncBytes: -1})
	if err != nil {
		t.Fatalf("reopen of the restored run: %v", err)
	}
	if v, ok, err := s2.Get([]byte("key-07")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("restored run: Get = %q, %v, %v", v, ok, err)
	}
	s2.Close()
}
