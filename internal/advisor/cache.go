package advisor

import (
	"container/list"
	"sync"
)

// call is one in-flight computation of a flight's value; joiners block on
// done, then read v and err.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// flight is the advisor's one memo kind: an LRU of kept values plus the
// singleflight table in front of it, so concurrent askers of one key share
// one computation. The Server keeps full plans in one, keyed by
// Request.Key; the Core keeps native baselines in another, keyed by
// (machine, seed, scale). Only the values an owner chooses to keep are
// stored: a failure, or a degraded plan, is handed to its waiters and
// forgotten, so the next asker computes it again.
type flight[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]*list.Element // value: *entry[K, V]
	lru      *list.List          // front = most recent
	max      int
	inflight map[K]*call[V]
}

type entry[K comparable, V any] struct {
	key K
	v   V
}

func newFlight[K comparable, V any](max int) *flight[K, V] {
	if max < 1 {
		max = 1
	}
	return &flight[K, V]{
		entries:  make(map[K]*list.Element),
		lru:      list.New(),
		max:      max,
		inflight: make(map[K]*call[V]),
	}
}

// get returns the kept value for key, bumping its recency.
func (f *flight[K, V]) get(key K) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	el, ok := f.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	f.lru.MoveToFront(el)
	return el.Value.(*entry[K, V]).v, true
}

// pending returns the in-flight call for key, or nil when there is none;
// unlike join it never creates one.
func (f *flight[K, V]) pending(key K) *call[V] {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inflight[key]
}

// join returns the in-flight call for key, creating one when absent. The
// second result is true for the creator — the owner, which must settle
// the call whether or not it computes anything.
func (f *flight[K, V]) join(key K) (*call[V], bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.inflight[key]; ok {
		return c, false
	}
	c := &call[V]{done: make(chan struct{})}
	f.inflight[key] = c
	return c, true
}

// settle retires the owner's call: with keep, v becomes key's newest
// entry, evicting the coldest past the bound; either way every waiter is
// released with (v, err).
func (f *flight[K, V]) settle(key K, c *call[V], v V, err error, keep bool) {
	f.mu.Lock()
	delete(f.inflight, key)
	if keep {
		if el, ok := f.entries[key]; ok {
			el.Value.(*entry[K, V]).v = v
			f.lru.MoveToFront(el)
		} else {
			f.entries[key] = f.lru.PushFront(&entry[K, V]{key: key, v: v})
		}
		for f.lru.Len() > f.max {
			old := f.lru.Back()
			f.lru.Remove(old)
			delete(f.entries, old.Value.(*entry[K, V]).key)
		}
	}
	f.mu.Unlock()
	c.v, c.err = v, err
	close(c.done)
}

// len reports the kept-entry count (tests).
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lru.Len()
}
