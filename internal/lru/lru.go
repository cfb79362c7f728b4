// Package lru implements the fixed-capacity least-recently-used cache
// that the Ethereum preset places in front of its state trie ("Ethereum
// only caches parts of the state in memory, using LRU for eviction
// policy"). One generic cache serves both the decoded trie-node cache
// and the flat-state value cache.
package lru

// Cache maps keys to values with LRU eviction. Entries are linked
// intrusively: a new key costs one allocation, a hit or refresh none,
// and at capacity the evicted entry is recycled for the incoming key.
// It is not safe for concurrent use; callers hold their own locks.
type Cache[K comparable, V any] struct {
	cap   int
	items map[K]*entry[K, V]
	// head is the list sentinel: head.next is the most recently used
	// entry, head.prev the eviction candidate.
	head entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// New creates a cache holding at most capacity entries. A non-positive
// capacity yields a cache that stores nothing. The map is made at its
// capacity: a bounded cache fills anyway, and growing there would copy
// every slot once per doubling.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, items: make(map[K]*entry[K, V], max(capacity, 0))}
	c.Clear()
	return c
}

// Clear drops every entry and keeps the map's room for them.
func (c *Cache[K, V]) Clear() {
	clear(c.items)
	c.head.prev, c.head.next = &c.head, &c.head
}

func (e *entry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.head, c.head.next
	e.prev.next, e.next.prev = e, e
}

// Get returns the cached value and whether it was present.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		e.unlink()
		c.pushFront(e)
		return e.value, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes key=value, evicting the LRU entry on overflow.
func (c *Cache[K, V]) Put(key K, value V) {
	if c.cap <= 0 {
		return
	}
	e, ok := c.items[key]
	switch {
	case ok:
		e.unlink()
	case len(c.items) >= c.cap:
		e = c.head.prev
		e.unlink()
		delete(c.items, e.key)
		c.items[key] = e
	default:
		e = &entry[K, V]{}
		c.items[key] = e
	}
	e.key, e.value = key, value
	c.pushFront(e)
}

// Remove drops key from the cache if present.
func (c *Cache[K, V]) Remove(key K) {
	if e, ok := c.items[key]; ok {
		e.unlink()
		delete(c.items, key)
	}
}
