package kernel

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// OnceMap is a concurrent compute-once cache. Do runs a key's computation
// at most once while it succeeds: a caller that arrives while another is
// computing the same key waits for that result instead of repeating the
// work, and every later caller replays it. It serves every memo of pure
// results in this module, from the kernels' per-input tables to the
// process-wide application, frontier, testbed and oracle caches.
//
// A computation that fails or panics leaves nothing behind: callers that
// were waiting on it receive the same error (or, after a panic, compute
// afresh), and the next caller tries again.
//
// The zero value is an empty, unbounded map. Max > 0 bounds the number
// of stored keys; past it, a new key is computed for its caller and not
// stored, while stored keys keep being served.
//
// Keys are spread over independently locked shards, so concurrent callers
// filling the map with new keys seldom meet on one lock (on a single lock,
// two workers profiling x264 spent a third of their time parked). Stored
// values sit in the shard's map itself, not behind a pointer per key: a
// map of pointer-free keys and values is one block the garbage collector
// never scans, however many keys it holds.
type OnceMap[K comparable, V any] struct {
	Max int

	n      atomic.Int64 // stored keys
	shards [onceShards]onceShard[K, V]
}

const onceShards = 16

// onceShard is one lock and its keys, padded to its own cache line:
// done holds the stored results, pending the computations under way.
type onceShard[K comparable, V any] struct {
	mu      sync.RWMutex
	done    map[K]V
	pending map[K]*onceCall[V]
	_       [24]byte
}

// onceCall is one computation under way; its waiters block on wg. ok is
// set only once f has returned, so a waiter that finds it unset knows
// the computation panicked.
type onceCall[V any] struct {
	wg  sync.WaitGroup
	ok  bool
	v   V
	err error
}

// onceSeed hashes keys to shards; any seed spreads them equally well.
var onceSeed = maphash.MakeSeed()

// Get returns the stored result for k, computing it with f on the first
// call. f cannot fail.
func (c *OnceMap[K, V]) Get(k K, f func() V) V {
	v, _ := c.Do(k, func() (V, error) { return f(), nil })
	return v
}

// Do returns the stored result for k, computing it with f on the first
// call. An error is handed to the callers that waited for it and is not
// stored.
func (c *OnceMap[K, V]) Do(k K, f func() (V, error)) (V, error) {
	sh := &c.shards[maphash.Comparable(onceSeed, k)%onceShards]
	for {
		sh.mu.RLock()
		v, ok := sh.done[k]
		sh.mu.RUnlock()
		if ok {
			return v, nil
		}
		sh.mu.Lock()
		if v, ok := sh.done[k]; ok {
			sh.mu.Unlock()
			return v, nil
		}
		if call := sh.pending[k]; call != nil {
			sh.mu.Unlock()
			call.wg.Wait()
			if call.ok {
				return call.v, call.err
			}
			continue // the computation panicked: compute afresh
		}
		call := new(onceCall[V])
		call.wg.Add(1)
		if sh.pending == nil {
			sh.pending = make(map[K]*onceCall[V])
		}
		sh.pending[k] = call
		sh.mu.Unlock()
		c.run(sh, k, call, f)
		return call.v, call.err
	}
}

// run computes call with f, stores a success unless the map is full, and
// releases the waiters — also when f panics, which then propagates.
func (c *OnceMap[K, V]) run(sh *onceShard[K, V], k K, call *onceCall[V], f func() (V, error)) {
	defer func() {
		sh.mu.Lock()
		delete(sh.pending, k)
		if call.ok && call.err == nil && (c.Max <= 0 || c.n.Load() < int64(c.Max)) {
			if sh.done == nil {
				sh.done = make(map[K]V)
			}
			sh.done[k] = call.v
			c.n.Add(1)
		}
		sh.mu.Unlock()
		call.wg.Done()
	}()
	call.v, call.err = f()
	call.ok = true
}
