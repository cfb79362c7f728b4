// Streaming executor: a pull-based iterator tree over the columnar
// index. Operators exchange small row batches — a scan never
// materializes the history it covers, so query memory is bounded by
// the batch size (plus the aggregate's own state), not the chain
// length.
package analytics

import (
	"bytes"
	"sort"

	"blockbench/internal/types"
)

// batchRows is the number of rows an operator hands downstream per
// Next call.
const batchRows = 256

// Row is one decoded index row (one transaction).
type Row struct {
	Height   uint64
	Time     int64
	From     types.Address
	To       types.Address
	Value    uint64
	Contract string
	Method   string
	OK       bool
}

// Iterator is the executor's pull interface: Next returns the next
// batch, or nil when exhausted. A returned batch is only valid until
// the following Next call (operators reuse their buffers).
type Iterator[T any] interface {
	Next() []T
}

// scanIter is the index's table-scan access path: it streams rows with
// Height in [from, to) in ascending row order, walking segments in
// order, binary-searching into the first relevant row per segment and
// pruning sealed segments by their height zone map.
type scanIter struct {
	v        *view
	from, to uint64
	seg      int
	pos      int // -1: segment not yet entered
	done     bool
	buf      []Row
	scanned  *uint64
}

func (v *view) scan(from, to uint64, scanned *uint64) Iterator[Row] {
	return &scanIter{v: v, from: from, to: to, pos: -1, scanned: scanned}
}

func (it *scanIter) Next() []Row {
	if it.done {
		return nil
	}
	out := it.buf[:0]
	for len(out) < batchRows && !it.done {
		s := it.v.segment(it.seg)
		if s == nil {
			it.done = true
			break
		}
		if s.rows() == 0 {
			it.seg++
			it.pos = -1
			continue
		}
		if it.pos < 0 {
			// Predicate pushdown: the height zone map rejects the whole
			// segment without reading a row. Heights are globally
			// ascending, so a segment past the range ends the scan.
			if s.zoned && s.maxH < it.from {
				it.v.ix.zoneSkips.Inc()
				it.seg++
				continue
			}
			if s.zoned && s.minH >= it.to {
				it.v.ix.zoneSkips.Inc()
				it.done = true
				break
			}
			it.pos = sort.Search(s.rows(), func(i int) bool { return s.height[i] >= it.from })
		}
		for it.pos < s.rows() && len(out) < batchRows {
			if s.height[it.pos] >= it.to {
				it.done = true
				break
			}
			out = append(out, it.v.rowFrom(s, it.pos))
			it.pos++
		}
		if it.pos >= s.rows() {
			it.seg++
			it.pos = -1
		}
	}
	it.buf = out
	if len(out) == 0 {
		it.done = true
		return nil
	}
	if it.scanned != nil {
		*it.scanned += uint64(len(out))
	}
	return out
}

// postingIter streams the rows touching one account (as sender or
// recipient) with Height in [from, to), driven by the account's posting
// list — cost proportional to the account's own history, not the
// chain's. Posting lists are ascending by row id, hence by height, so
// the height window is a contiguous slice of the list.
type postingIter struct {
	v        *view
	ids      []uint32
	i        int
	from, to uint64
	started  bool
	done     bool
	buf      []Row
	scanned  *uint64
}

func (v *view) accountScan(acct types.Address, from, to uint64, scanned *uint64) Iterator[Row] {
	return &postingIter{v: v, ids: v.postingsFor(acct), from: from, to: to, scanned: scanned}
}

func (it *postingIter) Next() []Row {
	if it.done {
		return nil
	}
	if !it.started {
		it.started = true
		it.i = sort.Search(len(it.ids), func(j int) bool {
			s, p := it.v.at(it.ids[j])
			return s.height[p] >= it.from
		})
	}
	out := it.buf[:0]
	for len(out) < batchRows && it.i < len(it.ids) {
		s, p := it.v.at(it.ids[it.i])
		if s.height[p] >= it.to {
			break
		}
		out = append(out, it.v.rowFrom(s, p))
		it.v.ix.postingsHits.Inc()
		it.i++
	}
	it.buf = out
	if len(out) == 0 {
		it.done = true
		return nil
	}
	if it.scanned != nil {
		*it.scanned += uint64(len(out))
	}
	return out
}

// Filter streams the rows of in that satisfy keep.
func Filter[T any](in Iterator[T], keep func(T) bool) Iterator[T] {
	return &filterIter[T]{in: in, keep: keep}
}

type filterIter[T any] struct {
	in   Iterator[T]
	keep func(T) bool
	buf  []T
}

func (it *filterIter[T]) Next() []T {
	for {
		batch := it.in.Next()
		if batch == nil {
			return nil
		}
		out := it.buf[:0]
		for _, x := range batch {
			if it.keep(x) {
				out = append(out, x)
			}
		}
		it.buf = out
		if len(out) > 0 {
			return out
		}
	}
}

// Reduce folds every element of in into acc — the executor's aggregate
// sink (sum/max/count collapse to one value, group-bys to one map).
func Reduce[T, A any](in Iterator[T], acc A, f func(A, T) A) A {
	for {
		batch := in.Next()
		if batch == nil {
			return acc
		}
		for _, x := range batch {
			acc = f(acc, x)
		}
	}
}

// TopAccounts orders account aggregates by activity — count desc, then
// sum desc, then address for determinism — and keeps the first k
// (k <= 0 keeps all).
func TopAccounts(stats []AccountStat, k int) []AccountStat {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Count != stats[j].Count {
			return stats[i].Count > stats[j].Count
		}
		if stats[i].Sum != stats[j].Sum {
			return stats[i].Sum > stats[j].Sum
		}
		return bytes.Compare(stats[i].Account[:], stats[j].Account[:]) < 0
	})
	if k > 0 && len(stats) > k {
		stats = stats[:k]
	}
	return stats
}
