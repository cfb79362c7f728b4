package kvstore

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
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

func bloomHash(key string) (h1, h2 uint64) {
	// FNV-1a, then derive the second hash by rotation (Kirsch-Mitzenmacher
	// double hashing: bit_i = h1 + i*h2).
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h1 = h
	h2 = h>>33 | h<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

func buildBloom(keys []string, bitsPerKey int) bloom {
	nbits := len(keys) * bitsPerKey
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
	for _, key := range keys {
		h1, h2 := bloomHash(key)
		block := b.bits[(h1%uint64(blocks))*bloomBlockWords:][:bloomBlockWords]
		for i := uint32(0); i < k; i++ {
			bit := h2 & 511
			block[bit/64] |= 1 << (bit % 64)
			h2 = h2>>9 | h2<<55
		}
	}
	return b
}

func (b bloom) mayContain(key string) bool {
	if len(b.bits) == 0 {
		return true
	}
	blocks := uint64(len(b.bits) / bloomBlockWords)
	h1, h2 := bloomHash(key)
	block := b.bits[(h1%blocks)*bloomBlockWords:][:bloomBlockWords]
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
// bloom keys and sparse index, then seals them into the footer.
type runWriter struct {
	path       string
	f          *os.File
	w          *bufio.Writer
	off        int64
	count      int
	keys       []string // every key, for the bloom
	idxKeys    []string
	idxOffs    []int64
	lastKey    string
	lastOff    int64
	bitsPerKey int
}

func newRunWriter(path string, bitsPerKey int) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &runWriter{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16), bitsPerKey: bitsPerKey}, nil
}

// add appends one record; keys must arrive in strictly ascending order.
func (rw *runWriter) add(k string, v []byte, del bool) error {
	if rw.count%indexStride == 0 {
		rw.idxKeys = append(rw.idxKeys, k)
		rw.idxOffs = append(rw.idxOffs, rw.off)
	}
	rw.lastKey, rw.lastOff = k, rw.off
	if err := writeRecord(rw.w, k, v, del); err != nil {
		return err
	}
	rw.keys = append(rw.keys, k)
	rw.off += int64(9 + len(k) + len(v))
	rw.count++
	return nil
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
		rw.idxKeys = append(rw.idxKeys, rw.lastKey)
		rw.idxOffs = append(rw.idxOffs, rw.lastOff)
	}
	dataLen := rw.off
	filter := buildBloom(rw.keys, rw.bitsPerKey)

	var scratch [10]byte
	binary.LittleEndian.PutUint32(scratch[0:4], filter.k)
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(len(filter.bits)))
	if _, err := rw.w.Write(scratch[:8]); err != nil {
		return nil, err
	}
	for _, word := range filter.bits {
		binary.LittleEndian.PutUint64(scratch[:8], word)
		if _, err := rw.w.Write(scratch[:8]); err != nil {
			return nil, err
		}
	}
	bloomLen := int64(8 + 8*len(filter.bits))

	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(rw.idxKeys)))
	if _, err := rw.w.Write(scratch[:4]); err != nil {
		return nil, err
	}
	idxLen := int64(4)
	for i, k := range rw.idxKeys {
		binary.LittleEndian.PutUint16(scratch[0:2], uint16(len(k)))
		if _, err := rw.w.Write(scratch[:2]); err != nil {
			return nil, err
		}
		if _, err := io.WriteString(rw.w, k); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(rw.idxOffs[i]))
		if _, err := rw.w.Write(scratch[:8]); err != nil {
			return nil, err
		}
		idxLen += int64(2 + len(k) + 8)
	}

	var footer [runFooterSz]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(dataLen))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(bloomLen))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(idxLen))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(rw.count))
	binary.LittleEndian.PutUint64(footer[32:40], runMagic)
	if _, err := rw.w.Write(footer[:]); err != nil {
		return nil, err
	}
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
	count := int(binary.LittleEndian.Uint64(footer[24:32]))
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
		idxKeys = append(idxKeys, string(idx[2:2+klen]))
		idxOffs = append(idxOffs, int64(binary.LittleEndian.Uint64(idx[2+klen:10+klen])))
		idx = idx[10+klen:]
	}
	if len(idxKeys) == 0 {
		return fail(fmt.Errorf("empty index"))
	}
	r := &run{
		path:    path,
		f:       f,
		size:    st.Size(),
		dataLen: dataLen,
		count:   count,
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
// between the greatest indexed key <= key and the next indexed key.
func (r *run) blockFor(key string) (lo, hi int64) {
	i := sort.SearchStrings(r.idxKeys, key) // first index >= key
	switch {
	case i < len(r.idxKeys) && r.idxKeys[i] == key:
		lo = r.idxOffs[i]
		if i+1 < len(r.idxOffs) {
			hi = r.idxOffs[i+1]
		} else {
			hi = r.dataLen
		}
	case i == 0:
		lo, hi = 0, 0 // key < minKey: not present
	default:
		lo = r.idxOffs[i-1]
		if i < len(r.idxOffs) {
			hi = r.idxOffs[i]
		} else {
			hi = r.dataLen
		}
	}
	return lo, hi
}

// get probes the run for key: min/max bounds, then the bloom filter,
// then a single bounded region read.
func (r *run) get(key string, probes, skips *atomic.Uint64) (v []byte, del, ok bool, err error) {
	if key < r.minKey || key > r.maxKey {
		return nil, false, false, nil
	}
	probes.Add(1)
	if !r.filter.mayContain(key) {
		skips.Add(1)
		return nil, false, false, nil
	}
	lo, hi := r.blockFor(key)
	if lo >= hi {
		return nil, false, false, nil
	}
	rr := r.region(lo, hi-lo)
	defer regionPool.Put(rr)
	br := rr.br
	// Step through the region without materialising the records we pass
	// over: peek the header and key in place, and only allocate for the
	// one value we return. A region holds at most indexStride records, so
	// this loop is the hot path of every disk-served point read. Regions
	// begin and end on record boundaries, so only a clean end of the
	// region means "absent"; a record cut short by it is corruption.
	for {
		hdr, rerr := br.Peek(9)
		if rerr == io.EOF && len(hdr) == 0 {
			return nil, false, false, nil
		}
		if rerr != nil {
			return nil, false, false, corruptIfCut(rerr)
		}
		d, klen, vlen, rerr := recordHeader(hdr)
		if rerr != nil {
			return nil, false, false, rerr
		}
		if 9+klen > br.Size() {
			// Key longer than the peek window: fall back to a full decode.
			k, val, dd, rerr := readRecord(br)
			if rerr != nil {
				return nil, false, false, corruptIfCut(rerr)
			}
			if k == key {
				return val, dd, true, nil
			}
			if k > key {
				return nil, false, false, nil
			}
			continue
		}
		rec, rerr := br.Peek(9 + klen)
		if rerr != nil {
			return nil, false, false, corruptIfCut(rerr)
		}
		switch cmp := cmpBytesString(rec[9:], key); {
		case cmp == 0:
			if _, rerr := br.Discard(9 + klen); rerr != nil {
				return nil, false, false, rerr
			}
			val := make([]byte, vlen)
			if _, rerr := io.ReadFull(br, val); rerr != nil {
				return nil, false, false, corruptIfCut(rerr)
			}
			return val, d, true, nil
		case cmp > 0:
			return nil, false, false, nil
		default:
			if _, rerr := br.Discard(9 + klen + vlen); rerr != nil {
				return nil, false, false, corruptIfCut(rerr)
			}
		}
	}
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

// cmpBytesString is bytes.Compare across a []byte and a string without
// converting either (the conversion would allocate on the ordered
// branches the compiler cannot elide).
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// regionReader is a buffered reader over one region of a run file. The
// section reader is held by value next to the buffer that reads from it,
// so pointing a pooled regionReader at a new region allocates nothing.
type regionReader struct {
	sec io.SectionReader
	br  *bufio.Reader
}

// regionPool recycles the readers behind point-read regions and run
// iterators, so read-heavy workloads do not reallocate buffers per probe.
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
	start string
	begun bool
}

func (r *run) iterator(start string) *runIterator {
	lo := int64(0)
	if start > r.minKey {
		lo, _ = r.blockFor(start)
	}
	return &runIterator{rr: r.region(lo, r.dataLen-lo), start: start}
}

func (it *runIterator) next() (string, []byte, bool, bool, error) {
	for {
		key, v, del, err := readRecord(it.rr.br)
		if err == io.EOF { // clean end, between records
			return "", nil, false, false, nil
		}
		if err != nil {
			return "", nil, false, false, corruptIfCut(err)
		}
		if !it.begun && key < it.start {
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
