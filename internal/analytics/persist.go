// Persistence: sealed segments and the index meta record are written
// through the node's kvstore under the "a:" namespace (beside the
// state trie's "t:", flat state's "f:" and bucket tree's "b:"/"d:"
// prefixes), so `-popt store=lsm` persists the analytics index through
// the same LSM that holds state. The open segment is never persisted —
// Load restores the sealed image and drops the (possibly mid-block)
// final block, and a CatchUp replays the rest from the chain.
package analytics

import (
	"encoding/binary"
	"fmt"
	"slices"

	"blockbench/internal/types"
)

const persistVersion = 2

var metaKey = []byte("a:m")

func segmentKey(i int) []byte {
	k := make([]byte, 4+8)
	copy(k, "a:s:")
	binary.BigEndian.PutUint64(k[4:], uint64(i))
	return k
}

// persistMeta writes the meta record: format version, segment size,
// sealed-segment count, and the string dictionary.
func (ix *Indexer) persistMeta() error {
	buf := make([]byte, 0, 64)
	buf = append(buf, persistVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(ix.segSize))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ix.sealed)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ix.dict)))
	for _, s := range ix.dict {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	return ix.store.Put(metaKey, buf)
}

// persistSegment writes one sealed segment's columns. The zone map is
// recomputed on load, not stored.
func (ix *Indexer) persistSegment(i int, s *segment) error {
	n := s.rows()
	buf := make([]byte, 0, n*(8+8+2*types.AddressSize+8+2+2+1)+8)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for _, v := range s.height {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	for _, v := range s.time {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	for j := 0; j < n; j++ {
		buf = append(buf, s.from[j][:]...)
	}
	for j := 0; j < n; j++ {
		buf = append(buf, s.to[j][:]...)
	}
	for _, v := range s.value {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	for _, v := range s.contract {
		buf = binary.BigEndian.AppendUint16(buf, v)
	}
	for _, v := range s.method {
		buf = binary.BigEndian.AppendUint16(buf, v)
	}
	buf = append(buf, s.ok...)
	return ix.store.Put(segmentKey(i), buf)
}

func (ix *Indexer) deleteSegment(i int) error {
	return ix.store.Delete(segmentKey(i))
}

// segReader decodes the persistSegment layout.
type segReader struct {
	buf []byte
	off int
	err error
}

func (r *segReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("truncated at offset %d (+%d of %d)", r.off, n, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *segReader) u16() uint16 { b := r.take(2); return binary.BigEndian.Uint16(pad(b, 2)) }
func (r *segReader) u32() uint32 { b := r.take(4); return binary.BigEndian.Uint32(pad(b, 4)) }
func (r *segReader) u64() uint64 { b := r.take(8); return binary.BigEndian.Uint64(pad(b, 8)) }

// pad keeps the fixed-width readers total after a truncation error —
// the reader's err field carries the failure.
func pad(b []byte, n int) []byte {
	if len(b) == n {
		return b
	}
	return make([]byte, n)
}

func decodeSegment(buf []byte) (*segment, error) {
	r := &segReader{buf: buf}
	n := int(r.u32())
	if r.err == nil && n > len(buf) {
		return nil, fmt.Errorf("row count %d exceeds payload", n)
	}
	s := &segment{
		height:   make([]uint64, n),
		time:     make([]int64, n),
		from:     make([]types.Address, n),
		to:       make([]types.Address, n),
		value:    make([]uint64, n),
		contract: make([]uint16, n),
		method:   make([]uint16, n),
	}
	for j := 0; j < n; j++ {
		s.height[j] = r.u64()
	}
	for j := 0; j < n; j++ {
		s.time[j] = int64(r.u64())
	}
	for j := 0; j < n; j++ {
		copy(s.from[j][:], r.take(types.AddressSize))
	}
	for j := 0; j < n; j++ {
		copy(s.to[j][:], r.take(types.AddressSize))
	}
	for j := 0; j < n; j++ {
		s.value[j] = r.u64()
	}
	for j := 0; j < n; j++ {
		s.contract[j] = r.u16()
	}
	for j := 0; j < n; j++ {
		s.method[j] = r.u16()
	}
	s.ok = append([]byte(nil), r.take(n)...)
	if r.err != nil {
		return nil, r.err
	}
	s.zone()
	return s, nil
}

// Load restores the persisted sealed-segment image into a fresh
// indexer, rebuilds the posting lists, and rewinds past the final
// indexed block (a seal boundary can cut mid-block, so the top block
// is re-applied by the follow-up CatchUp). A missing meta record is an
// empty index, not an error.
func (ix *Indexer) Load() error {
	if ix.store == nil {
		return fmt.Errorf("analytics: load: no store attached")
	}
	raw, ok, err := ix.store.Get(metaKey)
	if err != nil {
		return fmt.Errorf("analytics: load meta: %w", err)
	}
	if !ok {
		return nil
	}
	r := &segReader{buf: raw}
	if v := r.take(1); len(v) == 1 && v[0] != persistVersion {
		return fmt.Errorf("analytics: load: unknown format version %d", v[0])
	}
	segSize := int(r.u32())
	sealedCount := int(r.u32())
	dictLen := int(r.u32())
	if r.err != nil {
		return fmt.Errorf("analytics: load meta: %w", r.err)
	}
	if segSize != ix.segSize {
		return fmt.Errorf("analytics: load: segment size %d differs from configured %d", segSize, ix.segSize)
	}
	dict := make([]string, 0, dictLen)
	dictIDs := make(map[string]uint16, dictLen)
	for i := 0; i < dictLen; i++ {
		s := string(r.take(int(r.u16())))
		if r.err != nil {
			return fmt.Errorf("analytics: load dict: %w", r.err)
		}
		dict = append(dict, s)
		dictIDs[s] = uint16(i)
	}
	if len(dict) < len(fixedNames) || !slices.Equal(dict[:len(fixedNames)], fixedNames[:]) {
		return fmt.Errorf("analytics: load: corrupt dictionary")
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.sealed = ix.sealed[:0]
	ix.open = &segment{}
	ix.postings = make(map[types.Address][]uint32)
	ix.dict, ix.dictIDs = dict, dictIDs
	ix.rows, ix.last = 0, 0
	var zero types.Address
	for i := 0; i < sealedCount; i++ {
		raw, ok, err := ix.store.Get(segmentKey(i))
		if err != nil || !ok {
			return fmt.Errorf("analytics: load segment %d: missing (err=%v)", i, err)
		}
		s, err := decodeSegment(raw)
		if err != nil {
			return fmt.Errorf("analytics: load segment %d: %w", i, err)
		}
		if s.rows() != ix.segSize {
			return fmt.Errorf("analytics: load segment %d: %d rows, want %d", i, s.rows(), ix.segSize)
		}
		for j := 0; j < s.rows(); j++ {
			id := uint32(ix.rows)
			if s.from[j] != zero {
				ix.postings[s.from[j]] = append(ix.postings[s.from[j]], id)
			}
			if s.to[j] != zero && s.to[j] != s.from[j] {
				ix.postings[s.to[j]] = append(ix.postings[s.to[j]], id)
			}
			ix.rows++
		}
		ix.sealed = append(ix.sealed, s)
		ix.segsTotal.Inc()
		ix.rowsTotal.Add(uint64(s.rows()))
	}
	if ix.rows > 0 {
		top := ix.sealed[len(ix.sealed)-1]
		h := top.height[top.rows()-1]
		ix.last = h
		// The image may end mid-block: rewind the whole top block so the
		// catch-up scan re-applies it completely.
		ix.truncateLocked(h)
	}
	return nil
}
