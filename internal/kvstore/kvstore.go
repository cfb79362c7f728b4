// Package kvstore provides the persistent key-value storage engines that
// back blockchain state, standing in for LevelDB (used by geth) and
// RocksDB (used by Hyperledger Fabric v0.6).
//
// Two engines are provided: Mem, a mutex-protected in-memory map used by
// the Parity preset (which "holds all the state information in memory"),
// and LSM, a log-structured merge store with a write-ahead log, sorted
// immutable runs and size-triggered compaction. Both report their
// resident bytes (Stats) so the IOHeavy experiment can report disk usage.
package kvstore

import (
	"bytes"
	"errors"
	"sort"
	"sync"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// Stats summarizes a store's footprint.
type Stats struct {
	DiskBytes int64 // bytes resident in on-disk structures (0 for Mem)
	MemBytes  int64 // bytes resident in memory structures
}

// Store is the engine interface shared by all state backends.
//
// Ownership: no method keeps a slice it is passed — Put copies key and
// value, together, into a chunk region that is the stored record (on
// Mem, its own allocation) — and nobody writes into a slice Get returns.
// An engine only ever replaces a stored record, never rewrites it in
// place, so a Get result is shared and immutable: the caller may keep
// it for ever and must not modify it. On the LSM a Get result is a
// region of a 32 KiB chunk — its memtable record, or the copy of a
// run-served value carved from the store's read arena — so a kept
// result keeps its chunk alive.
type Store interface {
	// Get returns the value for key, with ok=false if absent.
	Get(key []byte) (value []byte, ok bool, err error)
	// Put stores key=value, overwriting any existing value.
	Put(key, value []byte) error
	// Delete removes key if present.
	Delete(key []byte) error
	// Iterate calls fn for each key in [start, end) in ascending key
	// order until fn returns false. A nil end means "to the last key".
	Iterate(start, end []byte, fn func(key, value []byte) bool) error
	// Stats returns activity counters and footprint.
	Stats() Stats
	// Close releases resources.
	Close() error
}

// CrashCloser is implemented by stores that can simulate a process kill:
// release the store without flushing buffered writes, leaving whatever
// was durable (possibly a torn tail) for the next open to recover. The
// platform's crash injector uses it instead of Close so recovery
// genuinely exercises the replay path.
type CrashCloser interface {
	CrashClose() error
}

// Mem is an in-memory store. It is safe for concurrent use.
type Mem struct {
	mu     sync.RWMutex
	m      map[string][]byte
	bytes  int64
	closed bool

	// Cap, when non-zero, bounds resident bytes; Put returns ErrMemoryFull
	// beyond it. The Parity preset uses this to reproduce the paper's
	// out-of-memory failures on large IOHeavy runs.
	cap int64
}

// ErrMemoryFull reports that a capped in-memory store is exhausted.
var ErrMemoryFull = errors.New("kvstore: in-memory store capacity exceeded")

// NewMem returns an unbounded in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// NewMemCapped returns an in-memory store that fails writes once resident
// bytes exceed capBytes.
func NewMemCapped(capBytes int64) *Mem {
	return &Mem{m: make(map[string][]byte), cap: capBytes}
}

// Get implements Store.
func (s *Mem) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.m[string(key)]
	return v, ok, nil
}

// Put implements Store.
func (s *Mem) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	old, had := s.m[string(key)]
	delta := int64(len(key) + len(value))
	if had {
		delta = int64(len(value) - len(old))
	}
	if s.cap > 0 && s.bytes+delta > s.cap {
		return ErrMemoryFull
	}
	k, v := newRecord(nil, key, value)
	s.m[k] = v // replaces the key string too, releasing the old record
	s.bytes += delta
	return nil
}

// Delete implements Store.
func (s *Mem) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	k := string(key)
	if old, ok := s.m[k]; ok {
		s.bytes -= int64(len(k) + len(old))
		delete(s.m, k)
	}
	return nil
}

// Iterate implements Store. It snapshots the key set, so fn may call back
// into the store.
func (s *Mem) Iterate(start, end []byte, fn func(k, v []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if inRange([]byte(k), start, end) {
			keys = append(keys, k)
		}
	}
	vals := make(map[string][]byte, len(keys))
	for _, k := range keys {
		vals[k] = s.m[k]
	}
	s.mu.RUnlock()

	sort.Strings(keys)
	for _, k := range keys {
		if !fn([]byte(k), vals[k]) {
			return nil
		}
	}
	return nil
}

// Stats implements Store.
func (s *Mem) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{MemBytes: s.bytes}
}

// Close implements Store.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.m = nil
	return nil
}

func inRange(k, start, end []byte) bool {
	if start != nil && bytes.Compare(k, start) < 0 {
		return false
	}
	if end != nil && bytes.Compare(k, end) >= 0 {
		return false
	}
	return true
}
