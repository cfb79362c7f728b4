package analytics

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"blockbench/internal/types"
)

func addr(b byte) types.Address {
	var a types.Address
	a[0] = b
	a[19] = 1 // never the zero address
	return a
}

func transfer(from, to byte, value uint64) *types.Transaction {
	return &types.Transaction{From: addr(from), To: addr(to), Value: value}
}

// fakeSource is an in-memory chain: blocks[i] is height i+1.
type fakeSource struct {
	blocks []*types.Block
	rcpts  [][]*types.Receipt
}

func (f *fakeSource) Height() uint64 { return uint64(len(f.blocks)) }

func (f *fakeSource) GetBlock(n uint64) (*types.Block, bool) {
	if n < 1 || n > uint64(len(f.blocks)) {
		return nil, false
	}
	return f.blocks[n-1], true
}

func (f *fakeSource) Receipts(n uint64) []*types.Receipt {
	if n < 1 || n > uint64(len(f.rcpts)) {
		return nil
	}
	return f.rcpts[n-1]
}

// add appends one block of transactions, all with receipt ok.
func (f *fakeSource) add(txs ...*types.Transaction) {
	n := uint64(len(f.blocks) + 1)
	rs := make([]*types.Receipt, len(txs))
	for i := range txs {
		rs[i] = &types.Receipt{OK: true}
	}
	f.blocks = append(f.blocks, &types.Block{
		Header: types.Header{Number: n, Time: int64(n) * 1000},
		Txs:    txs,
	})
	f.rcpts = append(f.rcpts, rs)
}

// load indexes every block of src in order through Apply, as the
// ledger's commit hook does.
func load(tb testing.TB, ix *Indexer, src *fakeSource) {
	tb.Helper()
	for i, b := range src.blocks {
		if err := ix.Apply(b, src.rcpts[i]); err != nil {
			tb.Fatal(err)
		}
	}
}

// chainSource builds blocks*txPerBlock deterministic transfers among 8
// accounts.
func chainSource(blocks, txPerBlock int) *fakeSource {
	src := &fakeSource{}
	for b := 0; b < blocks; b++ {
		txs := make([]*types.Transaction, txPerBlock)
		for t := 0; t < txPerBlock; t++ {
			i := b*txPerBlock + t
			txs[t] = transfer(byte(i%8), byte((i+1)%8), uint64(1+i%97))
		}
		src.add(txs...)
	}
	return src
}

// collect gathers what an access path hands its fold.
func collect(path func(yield func(Row)) uint64) []Row {
	var out []Row
	path(func(r Row) { out = append(out, r) })
	return out
}

func heights(path func(yield func(Row)) uint64) []uint64 {
	var out []uint64
	for _, r := range collect(path) {
		out = append(out, r.Height)
	}
	return out
}

func TestScanRangeAndZoneSkips(t *testing.T) {
	src := chainSource(100, 3) // 300 rows
	ix := NewIndexer(nil, Options{SegmentSize: 32})
	load(t, ix, src)
	if got := ix.Rows(); got != 300 {
		t.Fatalf("rows = %d, want 300", got)
	}
	if got := ix.last; got != 100 {
		t.Fatalf("last = %d, want 100", got)
	}

	got := heights(func(y func(Row)) uint64 { return ix.view().scan(40, 43, y) })
	want := []uint64{40, 40, 40, 41, 41, 41, 42, 42, 42}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan [40,43) heights = %v, want %v", got, want)
	}

	// A range deep inside the chain must skip the leading sealed
	// segments via their zone maps.
	before := ix.zoneSkips.Value()
	if got := len(collect(func(y func(Row)) uint64 { return ix.view().scan(90, 95, y) })); got != 15 {
		t.Fatalf("scan [90,95) rows = %d, want 15", got)
	}
	if ix.zoneSkips.Value() <= before {
		t.Fatalf("zone skips did not grow on a range-restricted scan (%d -> %d)",
			before, ix.zoneSkips.Value())
	}

	// Full scan covers everything in order.
	all := heights(func(y func(Row)) uint64 { return ix.view().scan(0, 0xffffffff, y) })
	if len(all) != 300 || all[0] != 1 || all[299] != 100 {
		t.Fatalf("full scan: %d rows, first %d, last %d", len(all), all[0], all[299])
	}
}

func TestAccountScanPostings(t *testing.T) {
	src := &fakeSource{}
	src.add(transfer(1, 2, 10))
	src.add(transfer(3, 4, 20))
	src.add(transfer(1, 3, 30), transfer(2, 1, 40))
	src.add(transfer(4, 2, 50))
	ix := NewIndexer(nil, Options{SegmentSize: 2})
	load(t, ix, src)

	rows := collect(func(y func(Row)) uint64 { return ix.view().accountScan(addr(1), 1, 100, y) })
	if len(rows) != 3 {
		t.Fatalf("account 1 rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.From != addr(1) && r.To != addr(1) {
			t.Fatalf("row at height %d does not touch account 1", r.Height)
		}
	}
	if hs := []uint64{rows[0].Height, rows[1].Height, rows[2].Height}; !reflect.DeepEqual(hs, []uint64{1, 3, 3}) {
		t.Fatalf("account 1 heights = %v, want [1 3 3]", hs)
	}
	if got := heights(func(y func(Row)) uint64 { return ix.view().accountScan(addr(1), 2, 4, y) }); !reflect.DeepEqual(got, []uint64{3, 3}) {
		t.Fatalf("account 1 [2,4) heights = %v, want [3 3]", got)
	}
	if got := collect(func(y func(Row)) uint64 { return ix.view().accountScan(addr(9), 1, 100, y) }); len(got) != 0 {
		t.Fatalf("unknown account returned %d rows", len(got))
	}
	if ix.postingsHits.Value() == 0 {
		t.Fatal("postings hits counter did not move")
	}
}

func TestReorgTruncateConverges(t *testing.T) {
	// Build two sources sharing a 6-block prefix, diverging after.
	shared := chainSource(6, 3)
	forkA := &fakeSource{blocks: append([]*types.Block{}, shared.blocks...), rcpts: append([][]*types.Receipt{}, shared.rcpts...)}
	forkA.add(transfer(1, 2, 111))
	forkA.add(transfer(2, 3, 222))
	forkB := &fakeSource{blocks: append([]*types.Block{}, shared.blocks...), rcpts: append([][]*types.Receipt{}, shared.rcpts...)}
	forkB.add(transfer(4, 5, 333), transfer(5, 6, 444))

	ix := NewIndexer(nil, Options{SegmentSize: 4})
	load(t, ix, forkA)
	// Reorg: the ledger redelivers the new branch's blocks through
	// OnCommit, replacing previously indexed heights from the
	// divergence point (here height 7; fork A's height 8 must go too).
	ix.OnCommit(forkB.blocks[6:], forkB.rcpts[6:])

	fresh := NewIndexer(nil, Options{SegmentSize: 4})
	load(t, fresh, forkB)
	for _, q := range []Query{
		{Op: OpSum, From: 1, To: 100},
		{Op: OpMaxDelta, Account: addr(5), From: 1, To: 100},
		{Op: OpTopK, Account: addr(5), From: 1, To: 100, K: 10},
	} {
		got, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got.Rows, want.Rows = 0, 0 // scan cost may differ across layouts
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after reorg: got %+v, want %+v", q.Op, got, want)
		}
	}
	if ix.Rows() != fresh.Rows() || ix.last != fresh.last {
		t.Fatalf("reorged index rows/last = %d/%d, fresh = %d/%d",
			ix.Rows(), ix.last, fresh.Rows(), fresh.last)
	}
}

func TestQuerySemantics(t *testing.T) {
	src := &fakeSource{}
	src.add(transfer(1, 2, 100))                    // h1
	src.add(transfer(2, 1, 30), transfer(1, 3, 20)) // h2: net for 1 = +10
	src.add(transfer(3, 1, 500))                    // h3
	// h4: a failed transfer — counted by sum (Q1 counts all txs), but
	// invisible to balance-delta and counterparty queries.
	failed := transfer(1, 2, 999)
	src.add(failed)
	src.rcpts[3][0].OK = false

	ix := NewIndexer(nil, Options{})
	load(t, ix, src)

	sum, err := ix.Query(Query{Op: OpSum, From: 1, To: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(100 + 30 + 20 + 500 + 999); sum.Value != want {
		t.Fatalf("sum = %d, want %d", sum.Value, want)
	}
	if sum.Height != 4 || sum.Rows != 5 {
		t.Fatalf("sum height/rows = %d/%d, want 4/5", sum.Height, sum.Rows)
	}

	// maxdelta over [1,5): deltas at heights 2..4 — |+10|, |+500|, 0.
	md, err := ix.Query(Query{Op: OpMaxDelta, Account: addr(1), From: 1, To: 5})
	if err != nil {
		t.Fatal(err)
	}
	if md.Value != 500 {
		t.Fatalf("maxdelta = %d, want 500", md.Value)
	}
	// Restricting to [1,3) sees only the height-2 net of +10.
	md, err = ix.Query(Query{Op: OpMaxDelta, Account: addr(1), From: 1, To: 3})
	if err != nil {
		t.Fatal(err)
	}
	if md.Value != 10 {
		t.Fatalf("maxdelta [1,3) = %d, want 10", md.Value)
	}

	top, err := ix.Query(Query{Op: OpTopK, Account: addr(1), From: 1, To: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Committed counterparties of 1: 2 (h1, h2), 3 (h2, h3). Tie on
	// count=2 breaks by sum: 3 carries 520, 2 carries 130.
	if len(top.Top) != 2 || top.Top[0].Account != addr(3) || top.Top[0].Sum != 520 ||
		top.Top[1].Account != addr(2) || top.Top[1].Sum != 130 {
		t.Fatalf("topk = %+v", top.Top)
	}

	if _, err := ix.Query(Query{Op: "bogus"}); err == nil {
		t.Fatal("unknown op succeeded")
	}
	empty, err := ix.Query(Query{Op: OpSum, From: 7, To: 7})
	if err != nil || empty.Value != 0 || empty.Rows != 0 {
		t.Fatalf("empty range: %+v, err %v", empty, err)
	}
}

func TestMaxVersionMatchesVersionDiffSemantics(t *testing.T) {
	// versionkv rows: prealloc then three updates touching account 1.
	acct, other := addr(1), addr(2)
	vkv := func(method string, args ...[]byte) *types.Transaction {
		return &types.Transaction{From: addr(9), Contract: "versionkv", Method: method, Args: args}
	}
	src := &fakeSource{}
	src.add(vkv("prealloc", acct.Bytes(), types.U64Bytes(1<<20)))               // h1: v1
	src.add(vkv("sendValue", acct.Bytes(), other.Bytes(), types.U64Bytes(50)))  // h2: v2, diff 50
	src.add(vkv("sendValue", other.Bytes(), acct.Bytes(), types.U64Bytes(700))) // h3: v3, diff 700
	src.add(vkv("sendValue", acct.Bytes(), other.Bytes(), types.U64Bytes(20)))  // h4: v4, diff 20
	ix := NewIndexer(nil, Options{})
	load(t, ix, src)

	// Full range: versions v1..v4 in window; the oldest (prealloc) only
	// anchors the first diff, so the answer is max(50, 700, 20).
	res, err := ix.Query(Query{Op: OpMaxVersion, Account: acct, From: 1, To: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 700 {
		t.Fatalf("maxversion full = %d, want 700", res.Value)
	}
	// Window [3,5): versions v3, v4 — v3 anchors, answer is v4's diff.
	res, err = ix.Query(Query{Op: OpMaxVersion, Account: acct, From: 3, To: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 20 {
		t.Fatalf("maxversion [3,5) = %d, want 20", res.Value)
	}
	// A single in-window version yields no diff at all.
	res, err = ix.Query(Query{Op: OpMaxVersion, Account: acct, From: 3, To: 4})
	if err != nil || res.Value != 0 {
		t.Fatalf("maxversion [3,4) = %d (err %v), want 0", res.Value, err)
	}
}

func TestTopAccountsOrder(t *testing.T) {
	stats := []AccountStat{
		{Account: addr(1), Count: 3, Sum: 10},
		{Account: addr(2), Count: 5, Sum: 1},
		{Account: addr(3), Count: 3, Sum: 90},
	}
	top := TopAccounts(stats, 2)
	if len(top) != 2 || top[0].Account != addr(2) || top[1].Account != addr(3) {
		t.Fatalf("top accounts = %+v", top)
	}
}

// modelSource builds a seeded chain of plain transfers (some failed,
// some self-transfers), versionkv preallocs and sendValues, and value-
// carrying calls to other contracts, zero to five per block.
func modelSource(rng *rand.Rand, blocks int, base *fakeSource, keep int) *fakeSource {
	src := &fakeSource{blocks: append([]*types.Block{}, base.blocks[:keep]...), rcpts: append([][]*types.Receipt{}, base.rcpts[:keep]...)}
	acct := func() byte { return byte(1 + rng.Intn(8)) }
	for len(src.blocks) < blocks {
		txs := make([]*types.Transaction, rng.Intn(6))
		for i := range txs {
			v := uint64(rng.Intn(50))
			switch rng.Intn(6) {
			case 0:
				txs[i] = &types.Transaction{From: addr(9), Contract: "versionkv", Method: "prealloc",
					Args: [][]byte{addr(acct()).Bytes(), types.U64Bytes(v)}}
			case 1:
				txs[i] = &types.Transaction{From: addr(9), Contract: "versionkv", Method: "sendValue",
					Args: [][]byte{addr(acct()).Bytes(), addr(acct()).Bytes(), types.U64Bytes(v)}}
			case 2:
				txs[i] = &types.Transaction{From: addr(acct()), Contract: "smallbank", Method: "deposit", Value: v % 3}
			default:
				txs[i] = transfer(acct(), acct(), v)
			}
		}
		src.add(txs...)
		for _, r := range src.rcpts[len(src.rcpts)-1] {
			r.OK = rng.Intn(5) != 0
		}
	}
	return src
}

// modelQuery answers q by walking src's blocks and receipts one by one:
// sum is Analytics.Q1's RPC walk, and the account queries read every
// transaction whose endpoints touch the account. Rows counts what the
// index's access paths must read: every row in the window for sum,
// the account's rows otherwise.
func modelQuery(src *fakeSource, q Query) Result {
	var zero types.Address
	from, to := q.From, q.To
	if last := src.Height(); to == 0 || to > last+1 {
		to = last + 1
	}
	res := Result{Height: to - 1}
	if from >= to {
		return res
	}
	if q.Op == OpMaxDelta {
		from++ // rows at From itself are history, not deltas
	}
	stats := map[types.Address]*AccountStat{}
	versions := 0
	for h := from; h < to; h++ {
		b, found := src.GetBlock(h)
		if !found {
			continue
		}
		var net int64
		for i, tx := range b.Txs {
			ok := src.Receipts(h)[i].OK
			f, t, v := RowEndpoints(tx)
			vkv := tx.Contract == "versionkv"
			if q.Op == OpSum {
				res.Rows++
				if tx.Contract == "" {
					res.Value += tx.Value
				} else if vkv && tx.Method == "sendValue" {
					res.Value += types.U64(tx.Args[2])
				}
				continue
			}
			if q.Account == zero || (f != q.Account && t != q.Account) {
				continue
			}
			res.Rows++
			if !ok {
				continue
			}
			switch q.Op {
			case OpMaxDelta:
				if !vkv && f == q.Account {
					net -= int64(v)
				}
				if !vkv && t == q.Account {
					net += int64(v)
				}
			case OpMaxVersion:
				if vkv {
					if versions++; versions > 1 {
						res.Value = max(res.Value, v)
					}
				}
			case OpTopK:
				cp := f
				if cp == q.Account {
					cp = t
				}
				if cp == zero || cp == q.Account {
					continue
				}
				if stats[cp] == nil {
					stats[cp] = &AccountStat{Account: cp}
				}
				stats[cp].Count++
				stats[cp].Sum += v
			}
		}
		if q.Op == OpMaxDelta {
			res.Value = max(res.Value, absInt64(net))
		}
	}
	if q.Op == OpTopK {
		var all []AccountStat
		for _, s := range stats {
			all = append(all, *s)
		}
		res.Top = TopAccounts(all, topK(q.K))
	}
	return res
}

// TestAccessPathsMatchModel checks every op, and the rows each reads,
// against a block-by-block walk: on an index of many 7-row segments and
// an open tail that was reorged onto a diverging chain, and on a
// default-size index of the same chain, over seeded windows that include
// empty, past-the-end and whole-chain ones.
func TestAccessPathsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	first := modelSource(rng, 540, &fakeSource{}, 0)
	src := modelSource(rng, 520, first, 380)

	small := NewIndexer(nil, Options{SegmentSize: 7})
	load(t, small, first)
	small.OnCommit(src.blocks[380:], src.rcpts[380:])
	if small.Rows() < 1200 || small.last != src.Height() {
		t.Fatalf("reorged index: %d rows up to %d, want >= 1200 up to %d", small.Rows(), small.last, src.Height())
	}
	whole := NewIndexer(nil, Options{})
	load(t, whole, src)

	last := src.Height()
	windows := [][2]uint64{{0, 0}, {1, last + 1}, {0, last + 50}, {last, last + 1}, {last + 1, 0}, {last + 5, last + 9}, {9, 9}, {30, 12}}
	for len(windows) < 240 {
		from := uint64(rng.Intn(int(last) + 10))
		windows = append(windows, [2]uint64{from, from + uint64(rng.Intn(60))})
	}
	for _, ix := range []*Indexer{small, whole} {
		for _, w := range windows {
			for _, op := range []Op{OpSum, OpMaxDelta, OpMaxVersion, OpTopK} {
				q := Query{Op: op, From: w[0], To: w[1], Account: addr(byte(rng.Intn(10))), K: rng.Intn(7)}
				if rng.Intn(20) == 0 {
					q.Account = types.Address{}
				}
				got, err := ix.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				want := modelQuery(src, q)
				if len(got.Top) == 0 && len(want.Top) == 0 {
					got.Top, want.Top = nil, nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("segment size %d, %+v:\n got %+v\nwant %+v", ix.segSize, q, got, want)
				}
			}
		}
	}
}

// overflowSource is a chain whose first block interns 65 536 distinct
// method names, filling the index's 16-bit dictionary.
func overflowSource() *fakeSource {
	src := &fakeSource{}
	txs := make([]*types.Transaction, 1<<16)
	for i := range txs {
		txs[i] = &types.Transaction{From: addr(1), Contract: "kvstore", Method: fmt.Sprintf("m%d", i)}
	}
	src.add(txs...)
	return src
}

func TestDictionaryOverflowKeepsQueryNames(t *testing.T) {
	query := func(t *testing.T, src *fakeSource, q Query) uint64 {
		ix := NewIndexer(nil, Options{})
		load(t, ix, src)
		res, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Value
	}
	t.Run("unknown contract is not a transfer", func(t *testing.T) {
		src := overflowSource()
		src.add(&types.Transaction{From: addr(1), Contract: "unknown", Method: "call", Value: 7})
		if got := query(t, src, Query{Op: OpSum, From: 2, To: 3}); got != 0 {
			t.Fatalf("sum over a contract call = %d, want 0 (the RPC walk's)", got)
		}
	})
	t.Run("versionkv first seen after the overflow", func(t *testing.T) {
		acct, other := addr(2), addr(3)
		src := overflowSource()
		src.add(&types.Transaction{From: addr(9), Contract: "versionkv", Method: "prealloc",
			Args: [][]byte{acct.Bytes(), types.U64Bytes(100)}})
		src.add(&types.Transaction{From: addr(9), Contract: "versionkv", Method: "sendValue",
			Args: [][]byte{acct.Bytes(), other.Bytes(), types.U64Bytes(5)}})
		src.add(&types.Transaction{From: addr(9), Contract: "versionkv", Method: "sendValue",
			Args: [][]byte{other.Bytes(), acct.Bytes(), types.U64Bytes(9)}})
		if got := query(t, src, Query{Op: OpSum, From: 2, To: 5}); got != 14 {
			t.Fatalf("sum = %d, want 14", got)
		}
		if got := query(t, src, Query{Op: OpMaxVersion, Account: acct, From: 2, To: 5}); got != 9 {
			t.Fatalf("maxversion = %d, want 9", got)
		}
	})
}

func TestCounterProviderKeys(t *testing.T) {
	ix := NewIndexer(nil, Options{})
	got := ix.Counters()
	for _, k := range []string{
		"analytics.segments", "analytics.rows", "analytics.zone_skips",
		"analytics.postings_hits", "analytics.queries", "analytics.query_rows",
	} {
		if _, ok := got[k]; !ok {
			t.Fatalf("counter %q missing (have %v)", k, got)
		}
	}
}

func TestApplyGapFails(t *testing.T) {
	ix := NewIndexer(nil, Options{})
	b := &types.Block{Header: types.Header{Number: 5}}
	if err := ix.Apply(b, nil); err == nil {
		t.Fatal("applying block 5 onto an empty index succeeded")
	}
}

// TestCommitGapFailsQueries: a gap on the commit path stops the index,
// and every later query says where and why instead of answering from
// the prefix (which it used to do with no error).
func TestCommitGapFailsQueries(t *testing.T) {
	src := chainSource(5, 2)
	ix := NewIndexer(nil, Options{})
	ix.OnCommit(src.blocks[:3], src.rcpts[:3])
	if _, err := ix.Query(Query{Op: OpSum}); err != nil {
		t.Fatalf("query before the gap: %v", err)
	}
	ix.OnCommit(src.blocks[4:], src.rcpts[4:])
	res, err := ix.Query(Query{Op: OpSum})
	if err == nil {
		t.Fatalf("query after a gap at block 5 answered %+v with no error", res)
	}
	if msg := err.Error(); !strings.Contains(msg, "block 5") || !strings.Contains(msg, "gap") {
		t.Fatalf("query error %q names neither the height nor the cause", msg)
	}
}
