package state

import (
	"sort"
	"sync"

	"blockbench/internal/types"
)

// Multi-version state view for optimistic intra-block parallel
// execution (Block-STM style). The serial execution model gives every
// transaction of a block a consistent prefix state: tx i sees the
// writes of txs 0..i-1 and nothing else. To run transactions of one
// block concurrently while reproducing exactly that outcome, the
// executor gives each transaction a TxView — a Backend whose reads go
// through an MVStore and record the version they observed, and whose
// writes are captured privately instead of touching shared state. A
// validation pass then re-resolves every recorded read: if each key
// still resolves to the same version, the speculative execution is
// byte-identical to what a serial execution at that position would
// have produced, and its write set is published; otherwise the
// transaction re-executes.

// BaseVersion is the version recorded for a read that resolved in the
// block's base state (the state as of the parent block) rather than in
// the write set of an earlier transaction of the same block.
const BaseVersion = -1

// ReadRecord is one versioned read of a speculative execution: the raw
// composite key and the version observed — the in-block index of the
// committed transaction whose write supplied the value, or BaseVersion.
type ReadRecord struct {
	Key     string
	Version int
}

// mvWrite is one committed in-block write: transaction `tx` wrote
// `value` (nil = deletion) to the key. Entries per key are kept in
// ascending tx order.
type mvWrite struct {
	tx    int
	value []byte
}

// MVStore is the multi-version overlay of one block execution: the
// committed write sets of in-block transactions layered over the
// block's base state, with version-resolving reads. Committed writes
// are final — a transaction's write set is published at most once, so
// version equality implies value equality, which is what makes read
// validation sound.
//
// Reads are safe for concurrent use. Commit must not run concurrently
// with reads or other commits; the executor's round barrier provides
// that exclusion.
type MVStore struct {
	base *DB

	// baseMu serializes reads of the underlying state database: its
	// backends (trie, bucket tree) are single-threaded structures that
	// may mutate internal caches on Get. baseCache memoizes resolved
	// base values so each distinct key pays the backend walk (and any
	// storage latency it models) once per block.
	baseMu    sync.Mutex
	baseCache sync.Map // string -> []byte (nil = absent)

	mu     sync.RWMutex
	writes map[string][]mvWrite
}

// NewMVStore creates the multi-version overlay for one block executed
// on top of base.
func NewMVStore(base *DB) *MVStore {
	return &MVStore{base: base, writes: make(map[string][]mvWrite)}
}

// baseRead resolves a key in the block's base state through the
// memoizing cache.
func (m *MVStore) baseRead(key string) []byte {
	if v, ok := m.baseCache.Load(key); ok {
		return v.([]byte)
	}
	m.baseMu.Lock()
	v := m.base.raw(key)
	m.baseMu.Unlock()
	actual, _ := m.baseCache.LoadOrStore(key, v)
	return actual.([]byte)
}

// Read returns the value visible to the transaction at in-block index
// `before`: the committed write of the highest-indexed transaction
// < before, falling back to the base state. version reports where the
// value came from (a transaction index, or BaseVersion).
func (m *MVStore) Read(key string, before int) (value []byte, version int) {
	m.mu.RLock()
	ws := m.writes[key]
	// Highest committed writer strictly below `before`.
	i := sort.Search(len(ws), func(i int) bool { return ws[i].tx >= before })
	if i > 0 {
		w := ws[i-1]
		m.mu.RUnlock()
		return w.value, w.tx
	}
	m.mu.RUnlock()
	return m.baseRead(key), BaseVersion
}

// Commit publishes tx's write set (nil values are deletions). Each
// transaction commits at most once; the executor guarantees commits
// never race with reads.
func (m *MVStore) Commit(tx int, writes map[string][]byte) {
	if len(writes) == 0 {
		return
	}
	m.mu.Lock()
	for k, v := range writes {
		ws := m.writes[k]
		i := sort.Search(len(ws), func(i int) bool { return ws[i].tx >= tx })
		ws = append(ws, mvWrite{})
		copy(ws[i+1:], ws[i:])
		ws[i] = mvWrite{tx: tx, value: v}
		m.writes[k] = ws
	}
	m.mu.Unlock()
}

// ApplyTo flushes the block's final state — for every written key, the
// value of its highest-indexed committed writer — into db, journaled
// like any other write, leaving db ready to Commit.
func (m *MVStore) ApplyTo(db *DB) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, ws := range m.writes {
		db.write(k, ws[len(ws)-1].value)
	}
}

// TxView is the per-transaction state surface of one speculative
// execution: a Backend whose reads resolve through the MVStore
// (recording the version observed, first observation per key) and
// whose Commit keeps the overlay the transaction's DB hands it as the
// private write set. A TxView is used by exactly one worker at a time;
// it is not safe for concurrent use.
type TxView struct {
	mv *MVStore
	tx int

	reads   []ReadRecord
	readIdx map[string]struct{}
	writes  map[string][]byte
}

// NewTxView creates the state view for the transaction at in-block
// index tx.
func NewTxView(mv *MVStore, tx int) *TxView {
	return &TxView{mv: mv, tx: tx, readIdx: make(map[string]struct{})}
}

// Reset clears the recorded read and write sets for re-execution.
func (v *TxView) Reset() {
	v.reads = v.reads[:0]
	v.readIdx = make(map[string]struct{})
	v.writes = nil
}

// Tx returns the view's in-block transaction index.
func (v *TxView) Tx() int { return v.tx }

// Reads returns the recorded read set in first-observation order.
func (v *TxView) Reads() []ReadRecord { return v.reads }

// Writes returns the captured write set (nil values are deletions).
func (v *TxView) Writes() map[string][]byte { return v.writes }

// Get implements Backend: a versioned read through the MVStore,
// recorded once per key. The transaction's own writes never reach here
// — they are served by its DB overlay above this view.
func (v *TxView) Get(key []byte) ([]byte, error) {
	k := string(key)
	val, ver := v.mv.Read(k, v.tx)
	if _, dup := v.readIdx[k]; !dup {
		v.readIdx[k] = struct{}{}
		v.reads = append(v.reads, ReadRecord{Key: k, Version: ver})
	}
	return val, nil
}

// Commit implements Backend: the transaction's flushed overlay is its
// write set, kept as handed over. There is no structure to persist and
// no meaningful root for a speculative overlay.
func (v *TxView) Commit(writes map[string][]byte) (types.Hash, error) {
	v.writes = writes
	return types.ZeroHash, nil
}
