package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// LSM is a log-structured merge store: writes go to a group-fsynced
// write-ahead log and an in-memory memtable; when the memtable's size
// (LevelDB's: the key and value bytes handed to it since the last flush,
// dead versions included, so the WAL less its record headers) reaches
// MemTableBytes, it is flushed to an immutable sorted run. Each run
// carries a bloom filter and a sparse block index in its footer, so a
// point Get consults the memtable, then probes runs newest-to-oldest
// reading at most one bounded file region per run that may hold the key.
//
// Compaction is size-tiered: when enough adjacent runs accumulate in the
// same size tier they are merged — and only they — via a streaming k-way
// merge, so no write ever waits behind a monolithic full-store merge.
// Merging is paced by a byte budget accrued per write (a debt counter):
// compaction I/O is amortized against write traffic instead of bursting.
// MaxRuns is the safety valve: beyond it, runs merge regardless of debt.
//
// This is structurally faithful to LevelDB/RocksDB — the engines under
// geth and Fabric in the paper's data-model experiments — including the
// write amplification and disk footprint the IOHeavy workload measures.
type LSM struct {
	mu  sync.RWMutex
	dir string

	mem      map[string]entry
	memBytes int64     // bytes handed to mem since the last flush
	arena    arena     // mem's records are carved from it
	reads    readArena // run-served Get results are carved from it
	runs     []*run    // newest first
	sorted   []string  // flush's key scratch, empty between flushes

	wal      *os.File
	walBuf   *bufio.Writer
	walSize  int64
	unsynced int64

	memLimit   int64
	maxRuns    int
	fanout     int
	bitsPerKey int
	syncBytes  int64
	budget     int64 // compaction bytes granted per byte written
	debt       int64 // accrued compaction allowance in bytes

	nextRun int
	closed  bool

	gets, puts              atomic.Uint64
	bloomProbes, bloomSkips atomic.Uint64
	flushes, compactions    atomic.Uint64
	compactBytes, walSyncs  atomic.Uint64
}

type entry struct {
	value   []byte
	deleted bool
}

// LSMOptions tunes the engine. Zero values select the defaults.
type LSMOptions struct {
	MemTableBytes int64 // flush threshold (default 4 MiB)
	MaxRuns       int   // hard compaction trigger ignoring pacing (default 12)
	Fanout        int   // runs merged per size-tiered compaction (default 4)
	BloomBits     int   // bloom filter bits per key (default 10)
	SyncBytes     int64 // group-fsync the WAL every N bytes (default 256 KiB, <0 disables)
	BudgetFactor  int   // compaction bytes allowed per byte written (default 8)
}

// OpenLSM opens (or creates) a store in dir, replaying any existing WAL.
// A torn record at the WAL tail (from a crash mid-append) is discarded
// and the file truncated back to its last complete record.
func OpenLSM(dir string, opts LSMOptions) (*LSM, error) {
	if opts.MemTableBytes <= 0 {
		opts.MemTableBytes = 4 << 20
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 12
	}
	if opts.Fanout < 2 {
		opts.Fanout = 4
	}
	if opts.BloomBits <= 0 {
		opts.BloomBits = 10
	}
	if opts.SyncBytes == 0 {
		opts.SyncBytes = 256 << 10
	}
	if opts.BudgetFactor <= 0 {
		opts.BudgetFactor = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: open lsm: %w", err)
	}
	s := &LSM{
		dir:        dir,
		mem:        make(map[string]entry),
		memLimit:   opts.MemTableBytes,
		maxRuns:    opts.MaxRuns,
		fanout:     opts.Fanout,
		bitsPerKey: opts.BloomBits,
		syncBytes:  opts.SyncBytes,
		budget:     int64(opts.BudgetFactor),
	}
	if err := s.loadRuns(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *LSM) loadRuns() error {
	// A crash between writing a merged run and renaming it into place
	// leaves a .tmp side file; the inputs it merged are all still live,
	// so it is pure garbage.
	if tmps, err := filepath.Glob(filepath.Join(s.dir, "run-*.sst.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "run-*.sst"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	// Newest runs have the highest sequence number; keep newest first.
	for i := len(matches) - 1; i >= 0; i-- {
		r, err := openRun(matches[i])
		if err != nil {
			return err
		}
		s.runs = append(s.runs, r)
		var seq int
		fmt.Sscanf(filepath.Base(matches[i]), "run-%d.sst", &seq)
		if seq >= s.nextRun {
			s.nextRun = seq + 1
		}
	}
	return nil
}

func (s *LSM) walPath() string { return filepath.Join(s.dir, "wal.log") }

func (s *LSM) openWAL() error {
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.wal = f
	s.walBuf = bufio.NewWriterSize(f, 1<<16)
	s.walSize = st.Size()
	s.unsynced = 0
	return nil
}

// replayWAL restores memtable contents from a previous crash. A torn
// tail record is dropped and the WAL truncated to the last complete
// record, so subsequent appends never follow garbage bytes.
func (s *LSM) replayWAL() error {
	f, err := os.Open(s.walPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	r := bufio.NewReader(f)
	var valid int64
	for {
		k, v, del, err := readRecord(r, &s.arena)
		if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorruptRecord) {
			// A torn tail record is expected after a crash, and a header
			// that cannot be real ends the readable log the same way;
			// everything before it is durable and already applied.
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("kvstore: replay wal: %w", err)
		}
		s.memApply(k, v, del)
		valid += int64(9 + len(k) + len(v))
	}
	f.Close()
	if st, err := os.Stat(s.walPath()); err == nil && st.Size() > valid {
		if err := os.Truncate(s.walPath(), valid); err != nil {
			return fmt.Errorf("kvstore: truncate torn wal: %w", err)
		}
	}
	return nil
}

// memApply installs a record. Assigning to a present key replaces the
// map's key string too, so an overwritten record stops pinning its chunk.
func (s *LSM) memApply(k string, v []byte, del bool) {
	s.mem[k] = entry{value: v, deleted: del}
	s.memBytes += int64(len(k) + len(v))
}

// arena is the free tail of the memtable's current chunk (LevelDB's
// Arena): records are carved front to back, never freed one by one, and
// a chunk lives while a record or a kept Get result points into it.
type arena []byte

const arenaChunk = 32 << 10

// alloc returns n bytes, capacity clipped, never nil. A nil arena, an
// empty request (make allocates nothing for it) or a record over a
// quarter chunk gets a block of its own and the current chunk stays
// current (LevelDB's AllocateFallback), so no chunk tail is wasted.
func (a *arena) alloc(n int) []byte {
	if a == nil || n == 0 || n > arenaChunk/4 {
		return make([]byte, n)
	}
	if n > len(*a) {
		*a = make([]byte, arenaChunk)
	}
	b := (*a)[:n:n]
	*a = (*a)[n:]
	return b
}

// readArena is the arena run-served Get results are copied into. Get
// holds only the store's read lock, so the carve takes a lock of its
// own; it is apart from the memtable's so that a kept read never pins a
// flushed memtable's chunk.
type readArena struct {
	mu sync.Mutex
	arena
}

// copy returns a copy of b carved from the arena, capacity clipped.
func (r *readArena) copy(b []byte) []byte {
	r.mu.Lock()
	v := r.alloc(len(b))
	r.mu.Unlock()
	copy(v, b)
	return v
}

// newRecord copies key and value into one region of a (nil: a slab of
// its own) laid out [key | value], the shape both engines store records in.
func newRecord(a *arena, key, value []byte) (k string, v []byte) {
	return splitRecord(append(append(a.alloc(len(key) + len(value))[:0], key...), value...), len(key))
}

// splitRecord views a [key | value] slab as a string over its head and
// the tail, capacity clipped: sound because nothing writes into a stored
// record (Store's ownership rule).
func splitRecord(slab []byte, klen int) (string, []byte) {
	return unsafe.String(unsafe.SliceData(slab), klen), slab[klen:len(slab):len(slab)]
}

// record layout: flag(1) klen(4) vlen(4) key val
//
// The header is built in the writer's own spare buffer space: a local
// array would escape through Write, one heap object per record. A failed
// write is sticky in bufio.Writer, so the last one reports any of them.
func writeRecord(w *bufio.Writer, k string, v []byte, del bool) error {
	hdr := append(w.AvailableBuffer(), 0)
	if del {
		hdr[0] = 1
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(k)))
	w.Write(binary.LittleEndian.AppendUint32(hdr, uint32(len(v))))
	w.WriteString(k)
	_, err := w.Write(v)
	return err
}

// maxRecordLen bounds a record's key and its value. The largest values
// the harness stores are encoded blocks and analytics segments, a few
// MiB, so a longer field is a damaged header: without the bound one
// flipped bit in a length is a 4 GiB allocation during crash recovery.
const maxRecordLen = 64 << 20

// ErrCorruptRecord reports a record whose header cannot have been
// written by writeRecord, or which runs past the end of a run's data
// region (whose extent the footer fixes).
var ErrCorruptRecord = errors.New("kvstore: corrupt record")

// recordHeader decodes a 9-byte record header, refusing lengths over
// maxRecordLen before anything is allocated from them.
func recordHeader(hdr []byte) (del bool, klen, vlen int, err error) {
	kl := binary.LittleEndian.Uint32(hdr[1:5])
	vl := binary.LittleEndian.Uint32(hdr[5:9])
	if hdr[0] > 1 || kl > maxRecordLen || vl > maxRecordLen {
		return false, 0, 0, fmt.Errorf("%w: flag %d, key %d B, value %d B", ErrCorruptRecord, hdr[0], kl, vl)
	}
	return hdr[0] == 1, int(kl), int(vl), nil
}

// readRecord reads one record into one region of a (splitRecord; nil:
// a slab of its own), peeking the header in r's own buffer; errors are
// io.ReadFull's: io.EOF only between records.
func readRecord(r *bufio.Reader, a *arena) (k string, v []byte, del bool, err error) {
	hdr, err := r.Peek(9)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return
	}
	del, klen, vlen, err := recordHeader(hdr)
	if err != nil {
		return
	}
	r.Discard(9)
	slab := a.alloc(klen + vlen)
	if _, err = io.ReadFull(r, slab); err != nil {
		err = io.ErrUnexpectedEOF
		return
	}
	k, v = splitRecord(slab, klen)
	return k, v, del, nil
}

// ErrTooLarge is returned for a record the LSM refuses by size, so it
// holds no version of that record: a key too long for a run's sparse
// index, which stores key lengths as uint16, or a value over the record
// limit.
var ErrTooLarge = errors.New("kvstore: record over the size limits")

// walAppend writes one record to the WAL buffer and group-fsyncs once
// enough unsynced bytes accumulate: many records share one fsync. It
// refuses what a later open could not read back, so it is never
// acknowledged (ErrTooLarge).
func (s *LSM) walAppend(k string, v []byte, del bool) error {
	if len(k) > math.MaxUint16 || len(v) > maxRecordLen {
		return fmt.Errorf("%w: %d B key, %d B value, over the %d B key or %d B value limit", ErrTooLarge, len(k), len(v), math.MaxUint16, maxRecordLen)
	}
	if err := writeRecord(s.walBuf, k, v, del); err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	n := int64(9 + len(k) + len(v))
	s.walSize += n
	s.unsynced += n
	s.debt += n * s.budget
	if s.syncBytes > 0 && s.unsynced >= s.syncBytes {
		return s.syncWALLocked()
	}
	return nil
}

func (s *LSM) syncWALLocked() error {
	if err := s.walBuf.Flush(); err != nil {
		return err
	}
	if s.syncBytes >= 0 {
		if err := s.wal.Sync(); err != nil {
			return err
		}
		s.walSyncs.Add(1)
	}
	s.unsynced = 0
	return nil
}

// Put implements Store.
func (s *LSM) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.puts.Add(1)
	k, v := newRecord(&s.arena, key, value)
	if err := s.walAppend(k, v, false); err != nil {
		return err
	}
	s.memApply(k, v, false)
	return s.maybeFlush()
}

// Delete implements Store.
func (s *LSM) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	k, _ := newRecord(&s.arena, key, nil)
	if err := s.walAppend(k, nil, true); err != nil {
		return err
	}
	s.memApply(k, nil, true)
	return s.maybeFlush()
}

// Get implements Store.
func (s *LSM) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	s.gets.Add(1)
	if e, ok := s.mem[string(key)]; ok {
		return e.value, !e.deleted, nil
	}
	for _, r := range s.runs {
		v, del, ok, err := r.get(key, &s.reads, &s.bloomProbes, &s.bloomSkips)
		if err != nil || ok {
			return v, ok && !del, err
		}
	}
	return nil, false, nil
}

func (s *LSM) maybeFlush() error {
	if s.memBytes < s.memLimit {
		return nil
	}
	return s.flushLocked()
}

// flushLocked writes the memtable to a new sorted run and truncates the
// WAL, then gives paced compaction a chance to merge a tier.
func (s *LSM) flushLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	keys := slices.Grow(s.sorted[:0], len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	path := filepath.Join(s.dir, fmt.Sprintf("run-%08d.sst", s.nextRun))
	s.nextRun++
	rw, err := newRunWriter(path, s.bitsPerKey, len(keys))
	if err != nil {
		return err
	}
	for _, k := range keys {
		e := s.mem[k]
		if err := rw.add(k, e.value, e.deleted); err != nil {
			rw.f.Close()
			return err
		}
	}
	r, err := rw.finish()
	if err != nil {
		return err
	}
	clear(keys) // they point into the memtable's chunks: pin none past the flush
	s.sorted = keys[:0]
	s.runs = append([]*run{r}, s.runs...)
	clear(s.mem) // keeps its buckets: the next memtable grows to the same size
	s.memBytes = 0
	s.arena = nil
	s.flushes.Add(1)

	// Reset the WAL: everything in it is now durable in the run.
	if err := s.wal.Close(); err != nil {
		return err
	}
	if err := os.Remove(s.walPath()); err != nil {
		return err
	}
	if err := s.openWAL(); err != nil {
		return err
	}
	return s.maybeCompactLocked()
}

// runTier buckets a run's size into 4x-wide tiers for size-tiered
// compaction: runs merge only with neighbors of similar magnitude.
func runTier(size int64) int {
	t := 0
	for q := size / (32 << 10); q > 0; q >>= 2 {
		t++
	}
	return t
}

// pickTiered returns the oldest fanout-wide window of adjacent runs
// sharing a size tier, preferring the cheapest (smallest) tier. Adjacency
// in the newest-first list is required so the merged run keeps its place
// in recency order.
func (s *LSM) pickTiered() (lo, hi int) {
	bestTier := -1
	lo, hi = -1, -1
	i := 0
	for i < len(s.runs) {
		t := runTier(s.runs[i].size)
		j := i + 1
		for j < len(s.runs) && runTier(s.runs[j].size) == t {
			j++
		}
		if j-i >= s.fanout && (bestTier == -1 || t < bestTier) {
			bestTier, lo, hi = t, j-s.fanout, j
		}
		i = j
	}
	return lo, hi
}

// pickForced returns the cheapest adjacent window whose merge brings the
// run count back to maxRuns. Used only when the tiered policy has no
// candidate but the run count exceeds the hard ceiling.
func (s *LSM) pickForced() (lo, hi int) {
	w := len(s.runs) - s.maxRuns + 1
	if w < 2 {
		w = 2
	}
	if w > len(s.runs) {
		w = len(s.runs)
	}
	var best int64 = -1
	lo, hi = -1, -1
	for i := 0; i+w <= len(s.runs); i++ {
		var total int64
		for j := i; j < i+w; j++ {
			total += s.runs[j].size
		}
		if best < 0 || total < best {
			best, lo, hi = total, i, i+w
		}
	}
	return lo, hi
}

// maybeCompactLocked runs at most a handful of bounded merges: tiered
// candidates only while the write-accrued debt covers their cost, plus
// forced merges whenever the run count exceeds the hard ceiling.
func (s *LSM) maybeCompactLocked() error {
	for {
		lo, hi := s.pickTiered()
		forced := false
		if lo >= 0 {
			var cost int64
			for _, r := range s.runs[lo:hi] {
				cost += r.size
			}
			if s.debt < cost && len(s.runs) <= s.maxRuns {
				return nil // not enough budget yet; let debt accrue
			}
		} else {
			if len(s.runs) <= s.maxRuns {
				return nil
			}
			lo, hi = s.pickForced()
			forced = true
			if lo < 0 {
				return nil
			}
		}
		if err := s.compactRange(lo, hi); err != nil {
			return err
		}
		if forced && len(s.runs) <= s.maxRuns {
			return nil
		}
	}
}

// compactRange merges the adjacent runs[lo:hi] (newest wins) into one
// run in their place. The merged file takes over the sequence number of
// the newest run in the window — written to a side file first, then
// renamed over it — because loadRuns reconstructs recency order from
// filenames alone: a merged middle window filed under a fresh (highest)
// sequence number would reopen as the newest run and its stale values
// would shadow every run that was newer than the window. Tombstones are
// dropped only when the window reaches the oldest run — otherwise they
// must keep shadowing older records.
func (s *LSM) compactRange(lo, hi int) error {
	window := append([]*run(nil), s.runs[lo:hi]...)
	dropTombstones := hi == len(s.runs)

	var cost int64
	var records int // upper bound on the merged run's: duplicates collapse
	for _, r := range window {
		cost += r.size
		records += r.count
	}
	target := window[0].path // newest sequence number in the window
	path := target + ".tmp"
	rw, err := newRunWriter(path, s.bitsPerKey, records)
	if err != nil {
		return err
	}
	sources := make([]kvIter, 0, len(window))
	iters := make([]*runIterator, 0, len(window))
	for _, r := range window {
		it := r.iterator(nil)
		iters = append(iters, it)
		sources = append(sources, it)
	}
	var addErr error
	err = mergeSources(sources, func(k string, v []byte, del bool) bool {
		if del && dropTombstones {
			return true
		}
		if addErr = rw.add(k, v, del); addErr != nil {
			return false
		}
		return true
	})
	for _, it := range iters {
		it.close()
	}
	if err == nil {
		err = addErr
	}
	if err != nil {
		rw.f.Close()
		os.Remove(path)
		return err
	}
	merged, err := rw.finish()
	if err != nil {
		return err
	}
	if merged != nil {
		// Open readers of the replaced file keep their FDs on the old
		// inode; merged's own FD was opened pre-rename and stays valid.
		if err := os.Rename(path, target); err != nil {
			merged.retire()
			return err
		}
		merged.path = target
	}

	newRuns := make([]*run, 0, len(s.runs)-len(window)+1)
	newRuns = append(newRuns, s.runs[:lo]...)
	if merged != nil {
		newRuns = append(newRuns, merged)
	}
	newRuns = append(newRuns, s.runs[hi:]...)
	s.runs = newRuns
	if merged != nil {
		// window[0]'s path now belongs to the merged run: release only
		// closes its FD. Marking it obsolete would delete the new file.
		window[0].release()
		window = window[1:]
	}
	for _, r := range window {
		r.retire()
	}
	s.compactions.Add(1)
	s.compactBytes.Add(uint64(cost))
	s.debt -= cost
	if s.debt < 0 {
		s.debt = 0
	}
	return nil
}

// Iterate implements Store as a streaming k-way heap merge over the
// memtable snapshot and one iterator per run. Runs are refcounted, so
// the merge proceeds without holding the store lock and fn may call back
// into the store.
func (s *LSM) Iterate(start, end []byte, fn func(k, v []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	runs := make([]*run, len(s.runs))
	copy(runs, s.runs)
	for _, r := range runs {
		r.acquire()
	}
	memSnap := make([]memEnt, 0, len(s.mem))
	for k, e := range s.mem {
		if inRange([]byte(k), start, end) {
			memSnap = append(memSnap, memEnt{k: k, v: e.value, del: e.deleted})
		}
	}
	s.mu.RUnlock()

	sort.Slice(memSnap, func(i, j int) bool { return memSnap[i].k < memSnap[j].k })
	sources := make([]kvIter, 0, len(runs)+1)
	sources = append(sources, &sliceIter{ents: memSnap})
	iters := make([]*runIterator, 0, len(runs))
	for _, r := range runs {
		it := r.iterator(start)
		iters = append(iters, it)
		sources = append(sources, it)
	}
	defer func() {
		for _, it := range iters {
			it.close()
		}
		for _, r := range runs {
			r.release()
		}
	}()

	endS := string(end)
	return mergeSources(sources, func(k string, v []byte, del bool) bool {
		if end != nil && k >= endS {
			return false
		}
		if del {
			return true
		}
		return fn([]byte(k), v)
	})
}

// Flush forces the memtable to disk (used by tests and shutdown).
func (s *LSM) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// Stats implements Store.
func (s *LSM) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var disk, aux int64
	for _, r := range s.runs {
		disk += r.size
		aux += r.aux
	}
	return Stats{
		DiskBytes: disk + s.walSize,
		MemBytes:  s.memBytes + aux,
	}
}

// Counters implements metrics.CounterProvider, surfacing the storage
// engine's behavior in driver snapshots and reports.
func (s *LSM) Counters() map[string]uint64 {
	return map[string]uint64{
		"store.gets":          s.gets.Load(),
		"store.puts":          s.puts.Load(),
		"store.bloom_probes":  s.bloomProbes.Load(),
		"store.bloom_skips":   s.bloomSkips.Load(),
		"store.flushes":       s.flushes.Load(),
		"store.compactions":   s.compactions.Load(),
		"store.compact_bytes": s.compactBytes.Load(),
		"store.wal_syncs":     s.walSyncs.Load(),
	}
}

// CrashClose simulates a process kill: the store is released WITHOUT
// flushing or fsyncing the buffered WAL tail, so whatever the last
// buffered writes were is abandoned — possibly mid-record, leaving a
// genuinely torn tail for replayWAL's truncation to recover on reopen.
// Only durably synced (and incidentally OS-buffered) data survives.
func (s *LSM) CrashClose() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	// Abandon walBuf (never flushed) and close the file without Sync.
	if err := s.wal.Close(); err != nil {
		return err
	}
	for _, r := range s.runs {
		r.release()
	}
	s.runs = nil
	s.closed = true
	return nil
}

// Close flushes the WAL and releases all files.
func (s *LSM) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.syncWALLocked(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	for _, r := range s.runs {
		r.release()
	}
	s.runs = nil
	s.closed = true
	return nil
}
