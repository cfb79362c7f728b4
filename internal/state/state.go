// Package state implements the world-state database shared by all three
// platform presets: account balances plus per-contract key-value
// namespaces, layered as a dirty overlay with a journal (for per-
// transaction revert on failure or out-of-gas) over an authenticated
// backend (Patricia-Merkle trie for Ethereum/Parity, Bucket-Merkle tree
// for Hyperledger).
package state

import (
	"errors"
	"fmt"
	"unsafe"

	"blockbench/internal/types"
)

// Backend is the authenticated storage a DB commits into: point reads,
// and one commit per block whose only argument is the block's write
// set. There is no enumeration — no contract, workload or figure scans
// state (the paper's data-model workloads are point reads and writes).
// A backend outlives its block (see DB.Rebind): after Commit it reads
// at the root Commit returned.
type Backend interface {
	// Get returns nil for absent keys. It must not keep key (the DB
	// reuses those bytes for its next call); the result is shared and
	// read-only, like a kvstore.Store's.
	Get(key []byte) ([]byte, error)
	// Commit applies writes (a nil value deletes the key), persists the
	// structure changes and returns the new state root. The backend may
	// keep the map; the caller must not touch it afterwards.
	Commit(writes map[string][]byte) (types.Hash, error)
}

// ErrInsufficientFunds is returned by Transfer when the sender balance
// is too low.
var ErrInsufficientFunds = errors.New("state: insufficient funds")

type journalEntry struct {
	key     string
	prev    []byte
	hadPrev bool
}

// DB is the mutable world state during block execution. It is not safe
// for concurrent use — a read rebuilds keyBuf — and block execution is
// single-threaded on every platform the paper studies.
type DB struct {
	backend Backend
	// overlay holds uncommitted writes; a nil value is a deletion. The
	// map is made by the first write: most DBs (every head-state reader,
	// every block after its commit) never see one.
	overlay map[string][]byte
	journal []journalEntry
	// keyBuf is the composite key of the call in progress. A read probes
	// the overlay and the backend with these bytes (neither keeps them); a
	// write copies them into the string the overlay and journal hold
	// (SetState: into the head of the value's own record).
	// keyArr is its first backing, enough for every registry contract's
	// keys: a head-state or proposal DB lives for one block, and a buffer
	// grown from nil would cost every one of them three allocations.
	keyBuf []byte
	keyArr [32]byte
}

// NewDB creates a state database over backend.
func NewDB(backend Backend) *DB {
	db := &DB{backend: backend}
	db.keyBuf = db.keyArr[:0]
	return db
}

func (db *DB) accountKey(addr types.Address) []byte {
	db.keyBuf = append(append(db.keyBuf[:0], "a:"...), addr[:]...)
	return db.keyBuf
}

func (db *DB) stateKey(contract string, key []byte) []byte {
	b := append(append(db.keyBuf[:0], "c:"...), contract...)
	db.keyBuf = append(append(b, ':'), key...)
	return db.keyBuf
}

// raw is the MVStore's entry: a composite key it already holds as a string.
func (db *DB) raw(key string) []byte {
	db.keyBuf = append(db.keyBuf[:0], key...)
	return db.read(db.keyBuf)
}

func (db *DB) read(key []byte) []byte {
	if v, ok := db.overlay[string(key)]; ok {
		return v
	}
	v, err := db.backend.Get(key)
	if err != nil {
		// Backend read errors indicate a broken store; in the simulated
		// cluster this only happens for capped Parity memory, which
		// surfaces on write, so reads treat errors as absence.
		return nil
	}
	return v
}

func (db *DB) write(key string, value []byte) {
	prev, had := db.overlay[key]
	db.journal = append(db.journal, journalEntry{key: key, prev: prev, hadPrev: had})
	if db.overlay == nil {
		db.overlay = make(map[string][]byte)
	}
	db.overlay[key] = value
}

// Snapshot marks a revert point covering all subsequent writes.
func (db *DB) Snapshot() int { return len(db.journal) }

// Revert undoes every write made after the snapshot was taken.
func (db *DB) Revert(snap int) {
	for i := len(db.journal) - 1; i >= snap; i-- {
		e := db.journal[i]
		if e.hadPrev {
			db.overlay[e.key] = e.prev
		} else {
			delete(db.overlay, e.key)
		}
	}
	db.journal = db.journal[:snap]
}

// GetBalance returns the account balance (0 for unknown accounts).
func (db *DB) GetBalance(addr types.Address) uint64 {
	return types.U64(db.read(db.accountKey(addr)))
}

// SetBalance assigns an account balance.
func (db *DB) SetBalance(addr types.Address, amount uint64) {
	db.write(string(db.accountKey(addr)), types.U64Bytes(amount))
}

// Transfer moves amount from one account to another. A zero from-address
// mints (used by genesis preload and mining rewards).
func (db *DB) Transfer(from, to types.Address, amount uint64) error {
	if !from.IsZero() {
		b := db.GetBalance(from)
		if b < amount {
			return fmt.Errorf("%w: have %d, need %d", ErrInsufficientFunds, b, amount)
		}
		db.SetBalance(from, b-amount)
	}
	db.SetBalance(to, db.GetBalance(to)+amount)
	return nil
}

// GetState reads a contract state key (nil if absent).
func (db *DB) GetState(contract string, key []byte) []byte {
	return db.read(db.stateKey(contract, key))
}

// SetState writes a contract state key. Key and value are copied once,
// into one [key | value] record laid out as a kvstore record is: the
// overlay and journal key is an unsafe.String over its head, the value
// its tail with the capacity clipped, so an append to it copies. That
// value is the copy the backend keeps — Commit hands over the write set
// and the trie keeps the value it is handed.
func (db *DB) SetState(contract string, key, value []byte) {
	k := db.stateKey(contract, key)
	rec := append(append(make([]byte, 0, len(k)+len(value)), k...), value...)
	db.write(unsafe.String(unsafe.SliceData(rec), len(k)), rec[len(k):len(rec):len(rec)])
}

// DeleteState removes a contract state key.
func (db *DB) DeleteState(contract string, key []byte) {
	db.write(string(db.stateKey(contract, key)), nil)
}

// Commit hands the overlay to the backend as the block's write set and
// returns the new state root (a nil map when nothing was written). The
// journal is cleared and the DB, its overlay empty again, remains usable.
func (db *DB) Commit() (types.Hash, error) {
	writes := db.overlay
	db.overlay = nil
	clear(db.journal) // its keys and values are the block's, not the DB's
	db.journal = db.journal[:0]
	return db.backend.Commit(writes)
}

// Rebind readies a DB that has just committed for the next block on
// that root. It keeps its scratch, a trie's buffers too, but no node the
// trie resolved: a fresh DB at that root would hold none.
func (db *DB) Rebind() {
	if b, ok := db.backend.(*TrieBackend); ok {
		b.trie.Reset(b.root)
	}
}
