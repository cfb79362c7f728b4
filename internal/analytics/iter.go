// Access paths: the two ways a query reads the columnar index. Each
// pushes the rows of a height window to the query's fold one at a time
// — a scan never materializes the history it covers, so query memory
// is the fold's own state, not the chain length.
package analytics

import (
	"bytes"
	"sort"

	"blockbench/internal/types"
)

// Row is one decoded index row (one transaction).
type Row struct {
	Height   uint64
	From     types.Address
	To       types.Address
	Value    uint64
	Contract string
	Method   string
	OK       bool
}

// scan is the table-scan access path: it hands yield the rows with
// Height in [from, to) in ascending row order, walking segments in
// order, pruning sealed segments by their height zone map and
// binary-searching into the first relevant row of each. It returns the
// number of rows it read.
func (v *view) scan(from, to uint64, yield func(Row)) (rows uint64) {
	for i := 0; ; i++ {
		s := v.segment(i)
		if s == nil {
			return rows
		}
		// Predicate pushdown: the height zone map rejects the whole
		// segment without reading a row. Heights are globally
		// ascending, so a segment past the range ends the scan.
		if s.zoned && s.maxH < from {
			v.ix.zoneSkips.Inc()
			continue
		}
		if s.zoned && s.minH >= to {
			v.ix.zoneSkips.Inc()
			return rows
		}
		for p := sort.Search(s.rows(), func(j int) bool { return s.height[j] >= from }); p < s.rows(); p++ {
			if s.height[p] >= to {
				return rows
			}
			yield(v.rowFrom(s, p))
			rows++
		}
	}
}

// accountScan hands yield the rows touching acct (as sender or
// recipient) with Height in [from, to), driven by the account's posting
// list — cost proportional to the account's own history, not the
// chain's. Posting lists are ascending by row id, hence by height, so
// the window is a contiguous slice of the list. It returns the number
// of rows it read.
func (v *view) accountScan(acct types.Address, from, to uint64, yield func(Row)) (rows uint64) {
	ids := v.postingsFor(acct)
	i := sort.Search(len(ids), func(j int) bool {
		s, p := v.at(ids[j])
		return s.height[p] >= from
	})
	for ; i < len(ids); i++ {
		s, p := v.at(ids[i])
		if s.height[p] >= to {
			break
		}
		yield(v.rowFrom(s, p))
		rows++
	}
	v.ix.postingsHits.Add(rows)
	return rows
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
