// Package hstore implements the in-memory partitioned database baseline
// the paper compares blockchains against (Fig 14). It follows H-Store's
// architecture: data is hash-partitioned, each partition is owned by a
// single-threaded executor, single-partition transactions run serially
// on their executor with no locking, and multi-partition transactions
// use a blocking two-phase commit that stalls every involved partition —
// which is why Smallbank (multi-key transfers) runs ~6x slower than YCSB
// (single-key ops) on H-Store while blockchains barely notice the
// difference (every blockchain node holds all state, so there is no
// distributed coordination to pay for).
package hstore

import (
	"errors"
	"hash/fnv"
	"sort"
	"sync"
)

// ErrStopped is returned once the store is shut down.
var ErrStopped = errors.New("hstore: stopped")

// Access is the key-value surface a transaction body sees. All keys
// passed to Get/Put must have been declared in Exec's key list.
type Access interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
}

type task struct {
	run  func()
	done chan struct{}
}

type partition struct {
	id   int
	data map[string][]byte
	ch   chan task
}

// Store is a partitioned in-memory database.
type Store struct {
	parts []*partition
	wg    sync.WaitGroup
	stop  chan struct{}
	once  sync.Once
}

// New creates a store with n partitions, one executor goroutine each.
func New(n int) *Store {
	if n <= 0 {
		n = 1
	}
	s := &Store{stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		p := &partition{id: i, data: make(map[string][]byte), ch: make(chan task, 256)}
		s.parts = append(s.parts, p)
		s.wg.Add(1)
		go s.executor(p)
	}
	return s
}

func (s *Store) executor(p *partition) {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case t := <-p.ch:
			t.run()
			close(t.done)
		}
	}
}

// Close stops all executors.
func (s *Store) Close() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

func (s *Store) partOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % len(s.parts)
}

type txnAccess struct {
	store *Store
	// parts the txn declared; accesses outside them are a bug.
	allowed map[int]bool
}

func (a *txnAccess) Get(key string) ([]byte, bool) {
	p := a.store.parts[a.store.partOf(key)]
	if !a.allowed[p.id] {
		panic("hstore: access to undeclared partition")
	}
	v, ok := p.data[key]
	return v, ok
}

func (a *txnAccess) Put(key string, value []byte) {
	p := a.store.parts[a.store.partOf(key)]
	if !a.allowed[p.id] {
		panic("hstore: access to undeclared partition")
	}
	v := make([]byte, len(value))
	copy(v, value)
	p.data[key] = v
}

// Exec runs fn as a transaction over the declared keys. Transactions
// touching a single partition run on that partition's executor;
// multi-partition transactions hold all involved executors for the
// duration (blocking 2PC, as in H-Store).
func (s *Store) Exec(keys []string, fn func(Access)) error {
	select {
	case <-s.stop:
		return ErrStopped
	default:
	}
	partSet := make(map[int]bool, len(keys))
	for _, k := range keys {
		partSet[s.partOf(k)] = true
	}
	access := &txnAccess{store: s, allowed: partSet}

	if len(partSet) == 1 {
		var pid int
		for id := range partSet {
			pid = id
		}
		t := task{done: make(chan struct{}), run: func() { fn(access) }}
		select {
		case s.parts[pid].ch <- t:
		case <-s.stop:
			return ErrStopped
		}
		<-t.done
		return nil
	}

	// Multi-partition: acquire executors strictly in id order — enqueue
	// the hold on a partition only after the previous partition is held,
	// otherwise two coordinators can interleave queue positions and
	// deadlock. Then run the body on the coordinator and release.
	ids := make([]int, 0, len(partSet))
	for id := range partSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	release := make(chan struct{})
	for _, id := range ids {
		ready := make(chan struct{})
		t := task{done: make(chan struct{}), run: func() {
			close(ready) // prepared: partition is now blocked
			<-release    // until the coordinator commits
		}}
		select {
		case s.parts[id].ch <- t:
		case <-s.stop:
			close(release)
			return ErrStopped
		}
		select {
		case <-ready:
		case <-s.stop:
			close(release)
			return ErrStopped
		}
	}
	fn(access)
	close(release)
	return nil
}
