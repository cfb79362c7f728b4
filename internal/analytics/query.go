// Query is the node-facing entry point: one request describes an
// operation over a height range, and the indexer answers it with one
// access path and one fold. The four operations cover the paper's two
// Analytics queries (sum, maxdelta/maxversion) and the counterparty
// ranking the HTAP workload issues (topk).
package analytics

import (
	"fmt"

	"blockbench/internal/types"
)

// Op names a query operation.
type Op string

const (
	// OpSum totals transaction value in the range — Q1.
	OpSum Op = "sum"
	// OpMaxDelta finds the largest per-block balance change of Account
	// in the range — Q2 on the account-balance platforms. The range
	// semantics mirror the baseline walk: deltas are measured between
	// consecutive block boundaries inside [From, To), so rows at height
	// From itself are history, not deltas.
	OpMaxDelta Op = "maxdelta"
	// OpMaxVersion finds the largest value among Account's in-range
	// version updates after the first — Q2's Hyperledger shape
	// (versionkv versions, newest-first consecutive diffs).
	OpMaxVersion Op = "maxversion"
	// OpTopK ranks Account's counterparties in the range by
	// transaction count (K results).
	OpTopK Op = "topk"
)

// Query is one analytics request. To == 0 means "to the end of what
// the serving node confirms"; the node clamps To to its confirmation
// height, and the indexer clamps it to what it has indexed.
type Query struct {
	Op       Op
	From, To uint64
	Account  types.Address
	K        int
}

// AccountStat aggregates one account's activity in a range.
type AccountStat struct {
	Account types.Address
	Count   uint64
	Sum     uint64
}

// Result is one query's answer. Rows counts the index rows the access
// path actually read (after pushdown — the query's true scan cost),
// and Height is the last block the answer covers.
type Result struct {
	Value  uint64
	Top    []AccountStat
	Rows   uint64
	Height uint64
}

// Query runs one request against a consistent snapshot of the index.
func (ix *Indexer) Query(q Query) (Result, error) {
	switch q.Op {
	case OpSum, OpMaxDelta, OpMaxVersion, OpTopK:
	default:
		return Result{}, fmt.Errorf("analytics: unknown op %q", q.Op)
	}
	ix.queries.Add(1)

	v := ix.view()
	if v.failed != nil {
		return Result{}, v.failed
	}
	from, to := q.From, q.To
	if to == 0 || to > v.last+1 {
		to = v.last + 1
	}
	res := Result{Height: to - 1}
	if from >= to {
		return res, nil // empty range
	}

	switch q.Op {
	case OpSum:
		// Q1 counts value-bearing transactions whether or not they
		// committed successfully, matching the baseline block walk.
		res.Rows = v.scan(from, to, func(r Row) {
			if r.Contract == "" || (r.Contract == "versionkv" && r.Method == "sendValue") {
				res.Value += r.Value
			}
		})

	case OpMaxDelta:
		// Per-block net balance movement of the account, max |net|.
		// Transfers move balances by exactly their value (no fees in
		// this system), so this equals the baseline's BalanceAt diffs.
		var h uint64
		var net int64
		res.Rows = v.accountScan(q.Account, from+1, to, func(r Row) {
			if !r.OK || r.Contract == "versionkv" {
				return
			}
			if r.Height != h {
				res.Value = max(res.Value, absInt64(net))
				net, h = 0, r.Height
			}
			if r.From == q.Account {
				net -= int64(r.Value)
			}
			if r.To == q.Account {
				net += int64(r.Value)
			}
		})
		res.Value = max(res.Value, absInt64(net))

	case OpMaxVersion:
		// versionkv writes one version per touching update, and
		// consecutive version values differ by exactly the update's
		// value — so the largest newest-first diff over the in-range
		// versions is the largest in-range update value, excluding the
		// range's oldest version (it only anchors the first diff).
		seen := false
		res.Rows = v.accountScan(q.Account, from, to, func(r Row) {
			if r.OK && r.Contract == "versionkv" && (r.Method == "sendValue" || r.Method == "prealloc") {
				if seen {
					res.Value = max(res.Value, r.Value)
				}
				seen = true
			}
		})

	case OpTopK:
		var stats []AccountStat
		stats, res.Rows = v.counterpartyStats(q.Account, from, to)
		res.Top = TopAccounts(stats, topK(q.K))
	}

	ix.queryRows.Add(res.Rows)
	return res, nil
}

// counterpartyStats aggregates the per-counterparty count and value
// sum of the committed rows touching acct in [from, to), and returns
// them with the number of rows it read.
func (v *view) counterpartyStats(acct types.Address, from, to uint64) ([]AccountStat, uint64) {
	var zero types.Address
	m := make(map[types.Address]*AccountStat)
	rows := v.accountScan(acct, from, to, func(r Row) {
		cp := r.From
		if cp == acct {
			cp = r.To
		}
		if !r.OK || cp == zero || cp == acct {
			return
		}
		s := m[cp]
		if s == nil {
			s = &AccountStat{Account: cp}
			m[cp] = s
		}
		s.Count++
		s.Sum += r.Value
	})
	out := make([]AccountStat, 0, len(m))
	for _, s := range m {
		out = append(out, *s)
	}
	return out, rows
}

func topK(k int) int {
	if k <= 0 {
		return 5
	}
	return k
}

func absInt64(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}
