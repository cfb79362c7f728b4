// Package analytics is the ledger's read-side query subsystem: a
// columnar block/transaction index maintained on the commit path, two
// access paths over it (a zone-pruned scan and a posting-list scan),
// and the server-side query entry point the node exposes to clients.
//
// The Indexer appends one row per transaction into fixed-size column
// segments (height, sender, recipient, value, contract, method,
// status). Sealed segments carry a min/max height zone map so
// range-restricted scans skip whole segments without touching rows, and
// a per-account posting list maps each address to the global row ids
// that touch it, so account-keyed queries read only their own rows.
//
// Concurrency contract: OnCommit/Apply mutate under ix.mu; queries take
// a snapshot of the segment set under RLock and then run lock-free.
// Appends only ever write indices beyond a snapshot's captured length,
// and every truncation path (reorgs) replaces the underlying arrays
// instead of cutting them in place, so an in-flight scan keeps reading
// the consistent pre-reorg view it captured.
package analytics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

// DefaultSegmentSize is the row capacity of one column segment. 1024
// rows ≈ 340 blocks at the paper's 3 tx/block: small enough that zone
// maps prune tight ranges, large enough that per-segment overhead
// (the zone map, the segment header) stays negligible.
const DefaultSegmentSize = 1024

// Options configures an Indexer.
type Options struct {
	// SegmentSize overrides DefaultSegmentSize (rows per segment).
	SegmentSize int
}

// segment is one fixed-capacity column group. Sealed segments are
// immutable and carry a zone map; the open segment grows by append only.
type segment struct {
	height   []uint64
	from     []types.Address
	to       []types.Address
	value    []uint64
	contract []uint16 // dictionary id into Indexer.dict
	method   []uint16
	ok       []byte // 1 = receipt OK

	// Height zone map, valid only when zoned (sealed segments).
	zoned      bool
	minH, maxH uint64
}

func (s *segment) rows() int { return len(s.height) }

// freeze returns a read-only alias of the segment's current rows.
// The returned slices are capacity-clamped, so later appends to the
// live segment allocate past them instead of overwriting.
func (s *segment) freeze() *segment {
	n := len(s.height)
	return &segment{
		height:   s.height[:n:n],
		from:     s.from[:n:n],
		to:       s.to[:n:n],
		value:    s.value[:n:n],
		contract: s.contract[:n:n],
		method:   s.method[:n:n],
		ok:       s.ok[:n:n],
		zoned:    s.zoned,
		minH:     s.minH,
		maxH:     s.maxH,
	}
}

// clone copies the first keep rows into fresh arrays. Truncations go
// through here so snapshots taken before the reorg keep their view.
func (s *segment) clone(keep int) *segment {
	c := &segment{
		height:   append(make([]uint64, 0, keep), s.height[:keep]...),
		from:     append(make([]types.Address, 0, keep), s.from[:keep]...),
		to:       append(make([]types.Address, 0, keep), s.to[:keep]...),
		value:    append(make([]uint64, 0, keep), s.value[:keep]...),
		contract: append(make([]uint16, 0, keep), s.contract[:keep]...),
		method:   append(make([]uint16, 0, keep), s.method[:keep]...),
		ok:       append(make([]byte, 0, keep), s.ok[:keep]...),
	}
	return c
}

// zone records the segment's height zone map (heights ascend, so it is
// the first and last row).
func (s *segment) zone() {
	s.zoned = true
	if s.rows() > 0 {
		s.minH, s.maxH = s.height[0], s.height[s.rows()-1]
	}
}

// Indexer maintains the columnar index for one node's canonical chain.
type Indexer struct {
	segSize int

	mu       sync.RWMutex
	sealed   []*segment // immutable, exactly segSize rows each
	open     *segment   // append-only tail
	postings map[types.Address][]uint32
	dict     []string // id -> string; starts with fixedNames
	dictIDs  map[string]uint16
	last     uint64 // highest fully indexed block height (0 = none)
	rows     uint64 // live row count (sealed + open)
	// failed is the first block the commit hook could not index: the
	// index has stopped there, and every query reports it.
	failed error

	// Counters are monotonic (CounterProvider contract): segments and
	// rows count cumulative seals/appends, not the live totals.
	segsTotal    atomic.Uint64
	rowsTotal    atomic.Uint64
	zoneSkips    atomic.Uint64
	postingsHits atomic.Uint64
	queries      atomic.Uint64
	queryRows    atomic.Uint64
}

// NewIndexer builds an empty, memory-only indexer. The store is
// ignored: the index is rebuilt by the commit path (journal replay or
// chain sync) after a restart, never read back from a store.
func NewIndexer(_ kvstore.Store, opts Options) *Indexer {
	size := opts.SegmentSize
	if size <= 0 {
		size = DefaultSegmentSize
	}
	ix := &Indexer{
		segSize:  size,
		open:     &segment{},
		postings: make(map[types.Address][]uint32),
		dictIDs:  make(map[string]uint16),
	}
	for _, name := range fixedNames {
		ix.internLocked(name)
	}
	return ix
}

// Counters implements metrics.CounterProvider.
func (ix *Indexer) Counters() map[string]uint64 {
	return map[string]uint64{
		"analytics.segments":      ix.segsTotal.Load(),
		"analytics.rows":          ix.rowsTotal.Load(),
		"analytics.zone_skips":    ix.zoneSkips.Load(),
		"analytics.postings_hits": ix.postingsHits.Load(),
		"analytics.queries":       ix.queries.Load(),
		"analytics.query_rows":    ix.queryRows.Load(),
	}
}

// Rows returns the live row count.
func (ix *Indexer) Rows() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.rows
}

// OnCommit is the ledger hook (ledger.Config.OnCommit): blocks arrive
// in ascending height order, possibly replacing previously committed
// heights after a reorg. It must not fail the commit, so an index error
// stops indexing at the failing block, and Query reports the first one
// from then on rather than answer from the prefix.
func (ix *Indexer) OnCommit(blocks []*types.Block, receipts [][]*types.Receipt) {
	for i, b := range blocks {
		var rs []*types.Receipt
		if i < len(receipts) {
			rs = receipts[i]
		}
		if err := ix.Apply(b, rs); err != nil {
			ix.mu.Lock()
			if ix.failed == nil {
				ix.failed = fmt.Errorf("analytics: index stopped at block %d: %w", b.Number(), err)
			}
			ix.mu.Unlock()
			return
		}
	}
}

// Apply indexes one block. Heights must arrive contiguously: n == last+1
// appends, n <= last truncates the reorged suffix first (re-applying an
// already-indexed block is therefore idempotent), and a gap is an
// error.
func (ix *Indexer) Apply(b *types.Block, receipts []*types.Receipt) error {
	n := b.Number()
	if n == 0 {
		return nil // genesis carries no transactions
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch {
	case n == ix.last+1:
	case n <= ix.last:
		ix.truncateLocked(n)
	default:
		return fmt.Errorf("analytics: apply block %d after %d: gap", n, ix.last)
	}
	for i, tx := range b.Txs {
		ok := byte(0)
		if i < len(receipts) && receipts[i].OK {
			ok = 1
		}
		ix.appendLocked(n, tx, ok)
	}
	ix.last = n
	return nil
}

// appendLocked adds one row and its posting entries.
func (ix *Indexer) appendLocked(height uint64, tx *types.Transaction, ok byte) {
	from, to, value := RowEndpoints(tx)
	id := uint32(ix.rows)
	s := ix.open
	s.height = append(s.height, height)
	s.from = append(s.from, from)
	s.to = append(s.to, to)
	s.value = append(s.value, value)
	s.contract = append(s.contract, ix.internLocked(tx.Contract))
	s.method = append(s.method, ix.internLocked(tx.Method))
	s.ok = append(s.ok, ok)
	var zero types.Address
	if from != zero {
		ix.postings[from] = append(ix.postings[from], id)
	}
	if to != zero && to != from {
		ix.postings[to] = append(ix.postings[to], id)
	}
	ix.rows++
	ix.rowsTotal.Add(1)
	if s.rows() == ix.segSize {
		ix.sealLocked()
	}
}

// RowEndpoints maps a transaction to the (sender, recipient, value)
// triple the index records. Plain transfers use the transaction fields;
// versionkv chaincode calls carry their endpoints in the argument list
// (the paper's Hyperledger analytics path); any other contract call
// moves tx.Value from the sender to the contract's account.
func RowEndpoints(tx *types.Transaction) (from, to types.Address, value uint64) {
	switch {
	case tx.Contract == "":
		return tx.From, tx.To, tx.Value
	case tx.Contract == "versionkv" && tx.Method == "sendValue" && len(tx.Args) >= 3:
		return types.BytesToAddress(tx.Args[0]), types.BytesToAddress(tx.Args[1]), types.U64(tx.Args[2])
	case tx.Contract == "versionkv" && tx.Method == "prealloc" && len(tx.Args) >= 2:
		return types.Address{}, types.BytesToAddress(tx.Args[0]), types.U64(tx.Args[1])
	default:
		return tx.From, exec.ContractAddress(tx.Contract), tx.Value
	}
}

// The dictionary's first ids are fixed: "" (a plain transfer), the
// names the queries test, and otherCall, the id of every string that
// arrives once the dictionary is full — so an overflowed row reads as
// some other contract call, never as a transfer or a versionkv update.
var fixedNames = [...]string{"", "versionkv", "sendValue", "prealloc", "(other)"}

const otherCall = uint16(len(fixedNames) - 1)

// internLocked returns the dictionary id for a contract/method string.
func (ix *Indexer) internLocked(s string) uint16 {
	if id, ok := ix.dictIDs[s]; ok {
		return id
	}
	if len(ix.dict) >= 1<<16 {
		return otherCall
	}
	id := uint16(len(ix.dict))
	ix.dict = append(ix.dict, s)
	ix.dictIDs[s] = id
	return id
}

// sealLocked freezes the full open segment: computes its zone map and
// starts a fresh open segment.
func (ix *Indexer) sealLocked() {
	s := ix.open
	s.zone()
	ix.sealed = append(ix.sealed, s)
	ix.open = &segment{}
	ix.segsTotal.Add(1)
}

// truncateLocked drops every row at height >= h (reorg rewind) and sets
// last = h-1. All cut data structures are replaced, not shrunk in
// place, preserving earlier snapshots.
func (ix *Indexer) truncateLocked(h uint64) {
	cut := ix.rowIndexOfHeightLocked(h)
	if cut < ix.rows {
		// Postings: every id >= cut disappears. Lists are ascending, so
		// each is a prefix cut — cloned, because a snapshot query may
		// still be walking the old array.
		for acct, list := range ix.postings {
			j := sort.Search(len(list), func(i int) bool { return list[i] >= uint32(cut) })
			if j == len(list) {
				continue
			}
			if j == 0 {
				delete(ix.postings, acct)
				continue
			}
			ix.postings[acct] = append(make([]uint32, 0, j), list[:j]...)
		}
		keepSealed := int(cut) / ix.segSize
		tail := int(cut) % ix.segSize
		if keepSealed < len(ix.sealed) {
			// Reopen the boundary segment: its kept prefix becomes the
			// new open segment.
			ix.open = ix.sealed[keepSealed].clone(tail)
			ix.sealed = append([]*segment(nil), ix.sealed[:keepSealed]...)
		} else {
			ix.open = ix.open.clone(tail)
		}
		ix.rows = cut
	}
	ix.last = h - 1
}

// rowIndexOfHeightLocked returns the global id of the first row at
// height >= h (rows when none).
func (ix *Indexer) rowIndexOfHeightLocked(h uint64) uint64 {
	// Binary-search the sealed segments by their max height, then the
	// rows of the boundary segment. Heights are globally ascending.
	si := sort.Search(len(ix.sealed), func(i int) bool { return ix.sealed[i].maxH >= h })
	base := uint64(si) * uint64(ix.segSize)
	var s *segment
	if si < len(ix.sealed) {
		s = ix.sealed[si]
	} else {
		s = ix.open
	}
	j := sort.Search(s.rows(), func(i int) bool { return s.height[i] >= h })
	return base + uint64(j)
}

// view is an immutable snapshot of the index for one query: sealed
// segments, a frozen alias of the open tail, and the dictionary.
type view struct {
	ix      *Indexer
	segSize int
	segs    []*segment
	open    *segment
	dict    []string
	last    uint64
	rows    uint64
	failed  error
}

func (ix *Indexer) view() *view {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.sealed)
	d := len(ix.dict)
	return &view{
		ix:      ix,
		segSize: ix.segSize,
		segs:    ix.sealed[:n:n],
		open:    ix.open.freeze(),
		dict:    ix.dict[:d:d],
		last:    ix.last,
		rows:    ix.rows,
		failed:  ix.failed,
	}
}

// segment returns the i-th segment in scan order (nil past the end).
func (v *view) segment(i int) *segment {
	if i < len(v.segs) {
		return v.segs[i]
	}
	if i == len(v.segs) {
		return v.open
	}
	return nil
}

// at resolves a global row id to its segment and in-segment offset.
func (v *view) at(id uint32) (*segment, int) {
	g := int(id)
	if si := g / v.segSize; si < len(v.segs) {
		return v.segs[si], g % v.segSize
	}
	return v.open, g - len(v.segs)*v.segSize
}

func (v *view) dictName(id uint16) string {
	if int(id) < len(v.dict) {
		return v.dict[id]
	}
	return ""
}

// postingsFor fetches an account's posting list, clamped to the rows
// this view covers. The list array itself is append-only between
// truncations and truncations clone, so reading it outside ix.mu after
// the clamp is safe.
func (v *view) postingsFor(acct types.Address) []uint32 {
	v.ix.mu.RLock()
	list := v.ix.postings[acct]
	v.ix.mu.RUnlock()
	end := sort.Search(len(list), func(i int) bool { return list[i] >= uint32(v.rows) })
	return list[:end:end]
}

func (v *view) rowFrom(s *segment, i int) Row {
	return Row{
		Height:   s.height[i],
		From:     s.from[i],
		To:       s.to[i],
		Value:    s.value[i],
		Contract: v.dictName(s.contract[i]),
		Method:   v.dictName(s.method[i]),
		OK:       s.ok[i] == 1,
	}
}
