package kvstore

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file holds the on-disk run format and its read paths: the bloom
// filter and sparse block index persisted in each run's footer, the
// refcounted run handle, streaming per-run iterators, and the k-way
// heap merge shared by Iterate and compaction.
//
// Run file layout (all integers little-endian):
//
//	records   flag(1) klen(4) vlen(4) key val, sorted by key
//	bloom     k(4) words(4) bits(8*words)
//	index     count(4), then per entry: klen(2) key off(8)
//	footer    dataLen(8) bloomLen(8) indexLen(8) count(8) magic(8)
//
// The sparse index holds every indexStride-th key plus the last key, so
// a point Get binary-searches the in-memory index and reads exactly one
// bounded file region (at most indexStride records). The bloom filter
// holds every key in the run (including tombstones — a tombstone must
// shadow older runs), so a negative probe skips the file entirely.

const (
	runMagic    = 0x4c534d3252554e32 // "LSM2RUN2"
	runFooterSz = 40
	indexStride = 16
)

// bloom is a blocked (register/cache-line local) Bloom filter over run
// keys: h1 picks one 512-bit block, and all k probe bits land inside
// it, so a probe costs one cache line regardless of filter size. The
// false-positive rate is slightly worse than an ideal split filter at
// equal bits, but on a million-key run the ideal filter's k scattered
// DRAM reads cost more than the extra fraction of a percent FP.
type bloom struct {
	bits []uint64 // whole blocks: len is a multiple of bloomBlockWords
	k    uint32
}

// bloomBlockWords is one cache line (64 bytes) of filter per block.
const bloomBlockWords = 8

// bloomHash is FNV-1a over the key: everything a filter needs of it.
func bloomHash[K string | []byte](key K) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// probe returns the block of b that hash h selects and the second hash
// its bits are drawn from, derived by rotation (Kirsch-Mitzenmacher
// double hashing: bit_i = h1 + i*h2).
func (b bloom) probe(h uint64) (block []uint64, h2 uint64) {
	blocks := uint64(len(b.bits) / bloomBlockWords)
	h2 = h>>33 | h<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return b.bits[(h%blocks)*bloomBlockWords:][:bloomBlockWords], h2
}

func buildBloom(hashes []uint64, bitsPerKey int) bloom {
	nbits := len(hashes) * bitsPerKey
	blocks := (nbits + 511) / 512
	if blocks < 1 {
		blocks = 1
	}
	// Optimal k ≈ bitsPerKey * ln 2; clamp so every probe bit fits in the
	// 63 bits of in-block entropy a rotated h2 provides (7 × 9 bits).
	k := uint32(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 7 {
		k = 7
	}
	b := bloom{bits: make([]uint64, blocks*bloomBlockWords), k: k}
	for _, h := range hashes {
		block, h2 := b.probe(h)
		for i := uint32(0); i < k; i++ {
			bit := h2 & 511
			block[bit/64] |= 1 << (bit % 64)
			h2 = h2>>9 | h2<<55
		}
	}
	return b
}

func (b bloom) mayContain(key []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	block, h2 := b.probe(bloomHash(key))
	for i := uint32(0); i < b.k; i++ {
		bit := h2 & 511
		if block[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		h2 = h2>>9 | h2<<55
	}
	return true
}

// run is an immutable sorted file plus its in-memory bloom filter and
// sparse index. Iterators hold a reference so compaction can retire a
// run without invalidating readers mid-scan; the file is closed (and,
// if obsolete, removed) when the last reference is released.
type run struct {
	path    string
	f       *os.File
	size    int64 // total file size including footer
	dataLen int64 // record section length
	count   int
	filter  bloom
	idxKeys []string
	idxOffs []int64
	minKey  string
	maxKey  string
	aux     int64 // resident bytes of filter + index

	refs     atomic.Int32
	obsolete atomic.Bool
}

func (r *run) acquire() { r.refs.Add(1) }

func (r *run) release() {
	if r.refs.Add(-1) == 0 {
		r.f.Close()
		if r.obsolete.Load() {
			os.Remove(r.path)
		}
	}
}

// retire drops the store's own reference and marks the file for removal.
func (r *run) retire() {
	r.obsolete.Store(true)
	r.release()
}

// runWriter streams sorted records into a new run file, accumulating the
// bloom hashes and sparse index, then seals them into the footer. The
// keys it is handed are views of memtable or merge records, so it keeps
// none of them: every key's hash, and its own copy of each index key,
// carved from idxBuf.
type runWriter struct {
	path       string
	f          *os.File
	w          *bufio.Writer
	off        int64
	count      int
	hashes     []uint64 // every key's, for the bloom
	idxKeys    []string
	idxOffs    []int64
	idxBuf     []byte // the buffer index keys are copied into; len is its used part
	lastKey    string // copied only if finish indexes it
	lastOff    int64
	bitsPerKey int
}

// newRunWriter creates the run file at path for about n records.
func newRunWriter(path string, bitsPerKey, n int) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &runWriter{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16), hashes: make([]uint64, 0, n), bitsPerKey: bitsPerKey}, nil
}

// add appends one record; keys must arrive in strictly ascending order.
func (rw *runWriter) add(k string, v []byte, del bool) error {
	if rw.count%indexStride == 0 {
		rw.idxKeys = append(rw.idxKeys, rw.cloneKey(k))
		rw.idxOffs = append(rw.idxOffs, rw.off)
	}
	rw.lastKey, rw.lastOff = k, rw.off
	if err := writeRecord(rw.w, k, v, del); err != nil {
		return err
	}
	rw.hashes = append(rw.hashes, bloomHash(k))
	rw.off += int64(9 + len(k) + len(v))
	rw.count++
	return nil
}

// cloneKey copies an index key into idxBuf and returns a view of the
// copy. A key that does not fit starts a new buffer, twice the last
// one's size; the full one is left as it is, because the keys already
// carved from it are views of its bytes.
func (rw *runWriter) cloneKey(k string) string {
	if len(k) > cap(rw.idxBuf)-len(rw.idxBuf) {
		rw.idxBuf = make([]byte, 0, max(2*cap(rw.idxBuf), len(k), 256))
	}
	start := len(rw.idxBuf)
	rw.idxBuf = append(rw.idxBuf, k...)
	return unsafe.String(unsafe.SliceData(rw.idxBuf[start:]), len(k))
}

// finish seals the run and reopens it read-only. An empty run (possible
// when compaction drops every tombstone) yields (nil, nil) and removes
// the file.
func (rw *runWriter) finish() (*run, error) {
	if rw.count == 0 {
		rw.f.Close()
		os.Remove(rw.path)
		return nil, nil
	}
	if rw.idxKeys[len(rw.idxKeys)-1] != rw.lastKey {
		rw.idxKeys = append(rw.idxKeys, rw.cloneKey(rw.lastKey))
		rw.idxOffs = append(rw.idxOffs, rw.lastOff)
	}
	dataLen := rw.off
	filter := buildBloom(rw.hashes, rw.bitsPerKey)

	// Bloom, index and footer stream into rw.w; a failed write is sticky
	// in bufio.Writer, so Flush reports any of them.
	var scratch [10]byte
	binary.LittleEndian.PutUint32(scratch[0:4], filter.k)
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(len(filter.bits)))
	rw.w.Write(scratch[:8])
	for _, word := range filter.bits {
		binary.LittleEndian.PutUint64(scratch[:8], word)
		rw.w.Write(scratch[:8])
	}
	bloomLen := int64(8 + 8*len(filter.bits))

	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(rw.idxKeys)))
	rw.w.Write(scratch[:4])
	idxLen := int64(4)
	for i, k := range rw.idxKeys {
		binary.LittleEndian.PutUint16(scratch[0:2], uint16(len(k)))
		rw.w.Write(scratch[:2])
		rw.w.WriteString(k)
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(rw.idxOffs[i]))
		rw.w.Write(scratch[:8])
		idxLen += int64(2 + len(k) + 8)
	}

	var footer [runFooterSz]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(dataLen))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(bloomLen))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(idxLen))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(rw.count))
	binary.LittleEndian.PutUint64(footer[32:40], runMagic)
	rw.w.Write(footer[:])
	if err := rw.w.Flush(); err != nil {
		rw.f.Close()
		return nil, err
	}
	if err := rw.f.Sync(); err != nil {
		rw.f.Close()
		return nil, err
	}
	rf, err := os.Open(rw.path)
	rw.f.Close()
	if err != nil {
		return nil, err
	}
	r := &run{
		path:    rw.path,
		f:       rf,
		size:    dataLen + bloomLen + idxLen + runFooterSz,
		dataLen: dataLen,
		count:   rw.count,
		filter:  filter,
		idxKeys: rw.idxKeys,
		idxOffs: rw.idxOffs,
		minKey:  rw.idxKeys[0],
		maxKey:  rw.idxKeys[len(rw.idxKeys)-1],
	}
	r.aux = runAuxBytes(r)
	r.refs.Store(1)
	return r, nil
}

func runAuxBytes(r *run) int64 {
	aux := int64(8 * len(r.filter.bits))
	for _, k := range r.idxKeys {
		aux += int64(len(k) + 8)
	}
	return aux
}

// openRun loads a sealed run's footer, bloom filter and sparse index
// without touching the record section.
func openRun(path string) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*run, error) {
		f.Close()
		return nil, fmt.Errorf("kvstore: open run %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if st.Size() < runFooterSz {
		return fail(fmt.Errorf("truncated (size %d)", st.Size()))
	}
	var footer [runFooterSz]byte
	if _, err := f.ReadAt(footer[:], st.Size()-runFooterSz); err != nil {
		return fail(err)
	}
	if binary.LittleEndian.Uint64(footer[32:40]) != runMagic {
		return fail(fmt.Errorf("bad footer magic"))
	}
	dataLen := int64(binary.LittleEndian.Uint64(footer[0:8]))
	bloomLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	idxLen := int64(binary.LittleEndian.Uint64(footer[16:24]))
	count := binary.LittleEndian.Uint64(footer[24:32])
	// Each length is a hostile 64 bits until it is known to fit the file:
	// as int64s a negative one and an oversized one can cancel in the sum,
	// and meta below is sized from two of them.
	body := st.Size() - runFooterSz
	for _, l := range []int64{dataLen, bloomLen, idxLen} {
		if l < 0 || l > body {
			return fail(fmt.Errorf("section length %d outside the %d-byte file", l, st.Size()))
		}
	}
	if dataLen+bloomLen+idxLen != body {
		return fail(fmt.Errorf("inconsistent section lengths"))
	}

	meta := make([]byte, bloomLen+idxLen)
	if _, err := f.ReadAt(meta, dataLen); err != nil {
		return fail(err)
	}
	if bloomLen < 8 {
		return fail(fmt.Errorf("short bloom section"))
	}
	filter := bloom{k: binary.LittleEndian.Uint32(meta[0:4])}
	words := int(binary.LittleEndian.Uint32(meta[4:8]))
	if int64(8+8*words) != bloomLen {
		return fail(fmt.Errorf("bloom length mismatch"))
	}
	filter.bits = make([]uint64, words)
	for i := 0; i < words; i++ {
		filter.bits[i] = binary.LittleEndian.Uint64(meta[8+8*i : 16+8*i])
	}

	idx := meta[bloomLen:]
	if len(idx) < 4 {
		return fail(fmt.Errorf("short index section"))
	}
	n := int(binary.LittleEndian.Uint32(idx[0:4]))
	idx = idx[4:]
	// An entry is at least a key length and an offset (2 + 8 bytes):
	// bound the count before sizing anything from it.
	if n > len(idx)/10 {
		return fail(fmt.Errorf("index count %d exceeds its %d-byte section", n, len(idx)))
	}
	idxKeys := make([]string, 0, n)
	idxOffs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if len(idx) < 2 {
			return fail(fmt.Errorf("index entry truncated"))
		}
		klen := int(binary.LittleEndian.Uint16(idx[0:2]))
		if len(idx) < 2+klen+8 {
			return fail(fmt.Errorf("index entry truncated"))
		}
		key, off := string(idx[2:2+klen]), int64(binary.LittleEndian.Uint64(idx[2+klen:10+klen]))
		// The offsets size the region a get reads and the keys steer its
		// search: the first entry opens the data at 0, every later one is
		// past its predecessor in both, and all lie inside the data.
		if off >= dataLen || (i == 0 && off != 0) || (i > 0 && (off <= idxOffs[i-1] || key <= idxKeys[i-1])) {
			return fail(fmt.Errorf("index entry %d (offset %d of %d data bytes) out of order", i, off, dataLen))
		}
		idxKeys = append(idxKeys, key)
		idxOffs = append(idxOffs, off)
		idx = idx[10+klen:]
	}
	// Every index entry is a record, and a record is at least its header.
	if n == 0 || count < uint64(n) || count > uint64(dataLen)/9 {
		return fail(fmt.Errorf("record count %d with %d index entries over %d data bytes", count, n, dataLen))
	}
	r := &run{
		path:    path,
		f:       f,
		size:    st.Size(),
		dataLen: dataLen,
		count:   int(count),
		filter:  filter,
		idxKeys: idxKeys,
		idxOffs: idxOffs,
		minKey:  idxKeys[0],
		maxKey:  idxKeys[len(idxKeys)-1],
	}
	r.aux = runAuxBytes(r)
	r.refs.Store(1)
	return r, nil
}

// blockFor returns the file region [lo, hi) that may hold key: the span
// from the greatest indexed key <= key to the next indexed key. openRun
// checked the offsets, so lo < hi <= dataLen; a key below minKey gets
// the empty region.
func (r *run) blockFor(key []byte) (lo, hi int64) {
	// i is the first index entry > key, so entry i-1 opens key's region.
	i := sort.Search(len(r.idxKeys), func(i int) bool { return r.idxKeys[i] > string(key) })
	if i == 0 {
		return 0, 0
	}
	if i < len(r.idxOffs) {
		return r.idxOffs[i-1], r.idxOffs[i]
	}
	return r.idxOffs[i-1], r.dataLen
}

// regionBufs recycles the buffers point reads load their region into.
var regionBufs = sync.Pool{New: func() any { return new([]byte) }}

// get probes the run for key: min/max bounds, then the bloom filter,
// then one read of the bounded region — at most indexStride records —
// into a pooled buffer, walked in place. The value that is returned (a
// tombstone has none) is copied out of that buffer into a region of
// reads, so it allocates only when it starts a 32 KiB chunk, and a kept
// result pins its chunk. Regions begin and end on record boundaries, so
// only a clean end of the region means "absent": a record the region
// cuts short has damaged lengths, and reading it as the end would drop
// what follows.
func (r *run) get(key []byte, reads *readArena, probes, skips *atomic.Uint64) (v []byte, del, ok bool, err error) {
	if string(key) < r.minKey || string(key) > r.maxKey {
		return nil, false, false, nil
	}
	probes.Add(1)
	if !r.filter.mayContain(key) {
		skips.Add(1)
		return nil, false, false, nil
	}
	lo, hi := r.blockFor(key)
	bp := regionBufs.Get().(*[]byte)
	defer regionBufs.Put(bp)
	*bp = slices.Grow((*bp)[:0], int(hi-lo))
	buf := (*bp)[:hi-lo]
	if _, err := r.f.ReadAt(buf, lo); err != nil {
		return nil, false, false, fmt.Errorf("kvstore: read run %s at %d: %w", r.path, lo, err)
	}
	for len(buf) > 0 {
		if len(buf) < 9 {
			return nil, false, false, ErrCorruptRecord
		}
		d, klen, vlen, err := recordHeader(buf)
		if err != nil {
			return nil, false, false, err
		}
		end := 9 + klen + vlen
		if end > len(buf) {
			return nil, false, false, ErrCorruptRecord
		}
		switch cmp := bytes.Compare(buf[9:9+klen], key); {
		case cmp > 0:
			return nil, false, false, nil
		case cmp == 0:
			if !d {
				v = reads.copy(buf[9+klen : end])
			}
			return v, d, true, nil
		}
		buf = buf[end:]
	}
	return nil, false, false, nil
}

// corruptIfCut turns the end of a run region met inside a record into
// ErrCorruptRecord: the footer fixes the data region's extent and the
// index cuts it on record boundaries, so lengths that lead past the end
// are damaged, and reading them as end-of-run would drop what follows.
func corruptIfCut(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorruptRecord
	}
	return err
}

// regionReader is a buffered reader over one region of a run file. The
// section reader is held by value next to the buffer that reads from it,
// so pointing a pooled regionReader at a new region allocates nothing.
type regionReader struct {
	sec io.SectionReader
	br  *bufio.Reader
}

// regionPool recycles the readers behind run iterators, so scans and
// merges do not reallocate a buffer per run.
var regionPool = sync.Pool{
	New: func() any { return &regionReader{br: bufio.NewReaderSize(nil, 32<<10)} },
}

// region returns a pooled reader over n bytes of the run file at off;
// the caller hands it back with regionPool.Put.
func (r *run) region(off, n int64) *regionReader {
	rr := regionPool.Get().(*regionReader)
	rr.sec = *io.NewSectionReader(r.f, off, n)
	rr.br.Reset(&rr.sec)
	return rr
}

// kvIter is a sorted stream of (key, value, tombstone) records.
type kvIter interface {
	next() (k string, v []byte, del bool, ok bool, err error)
}

// runIterator streams a run's record section in key order, starting at
// the greatest indexed key <= start.
type runIterator struct {
	rr    *regionReader
	start []byte
	begun bool
}

func (r *run) iterator(start []byte) *runIterator {
	lo, _ := r.blockFor(start) // 0 for a start below minKey
	return &runIterator{rr: r.region(lo, r.dataLen-lo), start: start}
}

func (it *runIterator) next() (string, []byte, bool, bool, error) {
	for {
		key, v, del, err := readRecord(it.rr.br, nil)
		if err == io.EOF { // clean end, between records
			return "", nil, false, false, nil
		}
		if err != nil {
			return "", nil, false, false, corruptIfCut(err)
		}
		if !it.begun && key < string(it.start) {
			continue
		}
		it.begun = true
		return key, v, del, true, nil
	}
}

func (it *runIterator) close() { regionPool.Put(it.rr) }

// memEnt is one memtable record snapshotted for iteration.
type memEnt struct {
	k   string
	v   []byte
	del bool
}

// sliceIter streams a sorted []memEnt.
type sliceIter struct {
	ents []memEnt
	i    int
}

func (it *sliceIter) next() (string, []byte, bool, bool, error) {
	if it.i >= len(it.ents) {
		return "", nil, false, false, nil
	}
	e := it.ents[it.i]
	it.i++
	return e.k, e.v, e.del, true, nil
}

// mergeCursor is one source's head record inside the merge heap. Lower
// prio means newer (memtable = 0, then runs newest-first).
type mergeCursor struct {
	k    string
	v    []byte
	del  bool
	prio int
	it   kvIter
}

type mergeHeap []*mergeCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].k != h[j].k {
		return h[i].k < h[j].k
	}
	return h[i].prio < h[j].prio
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeCursor)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeSources streams the k-way merge of sorted sources in ascending
// key order. For duplicate keys the lowest-prio (newest) record wins and
// the rest are discarded. fn returning false stops the merge.
func mergeSources(sources []kvIter, fn func(k string, v []byte, del bool) bool) error {
	h := make(mergeHeap, 0, len(sources))
	for prio, it := range sources {
		k, v, del, ok, err := it.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, &mergeCursor{k: k, v: v, del: del, prio: prio, it: it})
		}
	}
	heap.Init(&h)
	advance := func(c *mergeCursor) error {
		k, v, del, ok, err := c.it.next()
		if err != nil {
			return err
		}
		if !ok {
			heap.Pop(&h)
			return nil
		}
		c.k, c.v, c.del = k, v, del
		heap.Fix(&h, 0)
		return nil
	}
	for h.Len() > 0 {
		top := h[0]
		k, v, del := top.k, top.v, top.del
		if err := advance(top); err != nil {
			return err
		}
		// Discard older records for the same key.
		for h.Len() > 0 && h[0].k == k {
			if err := advance(h[0]); err != nil {
				return err
			}
		}
		if !fn(k, v, del) {
			return nil
		}
	}
	return nil
}
