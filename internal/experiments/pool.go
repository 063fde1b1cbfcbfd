package experiments

import "sync"

// pool runs the experiment harness's fan-outs. One pool is shared per Lab,
// so nested fan-outs (the registry running experiments in parallel, each
// of which fans replications out again and waits on memoized artifacts)
// compose under one bound instead of multiplying.
//
// Every forEach registers its cells as open work. The caller works its own
// fan-out's cells; helper goroutines take cells from any open fan-out and
// exit only when no open cell is left, so a helper that runs out of work
// joins any fan-out that opened while the pool was full.
//
// A goroutine that blocks in wait — on its own fan-out's in-flight cells
// or on a memo another goroutine is computing — lends its slot to a
// helper, and takes a slot back before it continues: if none is free, a
// helper gives its slot up when its current cell ends. So helpers never
// outnumber Workers−1 plus the goroutines blocked in wait, and with one
// calling goroutine at most Workers goroutines run cells at any instant.
//
// Only helpers, between cells, take other fan-outs' cells; a forEach
// caller runs only its own, and a blocked goroutine runs none. Otherwise
// the goroutine computing an artifact could pick up, while waiting for its
// stragglers, a cell that waits on that same artifact, and wait on itself.
// With acyclic memo dependencies, every wait therefore ends.
type pool struct {
	mu      sync.Mutex
	slotted sync.Cond // signalled when a slot frees for a reclaiming waiter
	extra   int       // Workers−1
	helpers int       // live helper goroutines
	lent    int       // goroutines blocked in wait, lending their slot
	reclaim int       // woken waiters owed a slot back
	open    []*fanout // fan-outs with cells nobody has taken, oldest first
	met     *labMetrics
}

// fanout is one forEach call's cells. Guarded by the pool's mutex.
type fanout struct {
	fn      func(i int)
	n, next int           // cell count; next cell nobody has taken
	pending int           // cells not yet finished
	done    chan struct{} // closed when pending reaches 0
}

// newPool builds a pool for workers goroutines (minimum 1): the calling
// goroutine plus workers−1 helper slots.
func newPool(workers int, met *labMetrics) *pool {
	p := &pool{extra: max(workers, 1) - 1, met: met}
	p.slotted.L = &p.mu
	return p
}

// forEach runs fn(i) for every i in [0, n) on the calling goroutine and
// the pool's helpers, and returns when all calls have finished. Cells are
// handed out in index order but finish in any order, so fn must depend
// only on i and write only to per-i state (e.g. a pre-indexed results
// slice) for the output to be deterministic. fn must not panic: a panic on
// a helper goroutine kills the process (Lab.shieldedForEach recovers).
func (p *pool) forEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		p.met.poolTasks.Inc()
		return
	}
	f := &fanout{fn: fn, n: n, pending: n, done: make(chan struct{})}
	p.mu.Lock()
	p.open = append(p.open, f)
	p.grow()
	for f.next < f.n {
		p.run(f, p.take(f))
	}
	p.mu.Unlock()
	p.wait(f.done)
}

// wait blocks until done is closed. Meanwhile the caller's slot is lent to
// a helper; afterwards the caller takes a slot back before returning.
func (p *pool) wait(done <-chan struct{}) {
	select {
	case <-done:
		return
	default:
	}
	p.mu.Lock()
	p.met.poolWaits.Inc()
	p.lent++
	p.slotted.Broadcast()
	p.grow()
	p.mu.Unlock()

	<-done

	p.mu.Lock()
	p.lent--
	p.reclaim++
	for p.helpers >= p.extra+p.lent+p.reclaim {
		p.slotted.Wait()
	}
	p.reclaim--
	p.mu.Unlock()
}

// grow starts helpers while a slot is free and an open cell is untaken;
// the slots owed to reclaiming waiters are not free. Called with p.mu held.
func (p *pool) grow() {
	for p.helpers < p.extra+p.lent && len(p.open) > 0 {
		f := p.open[len(p.open)-1]
		i := p.take(f)
		p.helpers++
		p.met.poolHelpers.Inc()
		go p.help(f, i)
	}
	p.met.poolActive.Set(int64(p.helpers))
	p.met.poolPeak.Observe(int64(p.helpers) + 1)
}

// help is a helper goroutine: it runs cell i of f, then takes further open
// cells — f's while it has any, then the newest open fan-out's — until
// none is left or a reclaiming waiter is owed its slot.
func (p *pool) help(f *fanout, i int) {
	p.mu.Lock()
	for {
		p.run(f, i)
		if p.helpers > p.extra+p.lent {
			break // a woken waiter is owed this slot
		}
		if f.next == f.n {
			if len(p.open) == 0 {
				break
			}
			f = p.open[len(p.open)-1]
		}
		i = p.take(f)
	}
	p.helpers--
	p.met.poolActive.Set(int64(p.helpers))
	p.slotted.Broadcast()
	p.mu.Unlock()
}

// run runs cell i of f with p.mu released, then records it finished.
// Called with p.mu held.
func (p *pool) run(f *fanout, i int) {
	p.mu.Unlock()
	f.fn(i)
	p.met.poolTasks.Inc()
	p.mu.Lock()
	if f.pending--; f.pending == 0 {
		close(f.done)
	}
}

// take hands out f's next cell, closing f to new takers once every cell is
// taken. Called with p.mu held and f.next < f.n.
func (p *pool) take(f *fanout) int {
	i := f.next
	if f.next++; f.next == f.n {
		for k, g := range p.open {
			if g == f {
				p.open = append(p.open[:k], p.open[k+1:]...)
				break
			}
		}
	}
	return i
}

// memo is a pool-aware singleflight slot. The first caller computes the
// value; every later caller shares it, and while the compute runs they
// wait on the pool, lending their slot. A compute that panics poisons the
// slot: the panic is re-raised to the computing caller and to every
// waiter, so none sees a half-built value, and it never computes again.
type memo[T any] struct {
	mu       sync.Mutex
	done     chan struct{} // nil until claimed; closed once v or panicked is set
	v        T
	panicked any
}

// get returns the memoized value, running compute on the first call;
// computed reports whether this call ran it.
func (m *memo[T]) get(p *pool, compute func() T) (v T, computed bool) {
	m.mu.Lock()
	done := m.done
	if done == nil {
		m.done = make(chan struct{})
	}
	m.mu.Unlock()
	if done == nil {
		m.compute(compute)
	} else {
		p.wait(done)
	}
	if m.panicked != nil {
		panic(m.panicked)
	}
	return m.v, done == nil
}

func (m *memo[T]) compute(f func() T) {
	defer close(m.done)
	defer func() { m.panicked = recover() }()
	m.v = f()
}

// memoFor returns the memo for key in table, creating it under mu.
func memoFor[K comparable, T any](mu *sync.Mutex, table map[K]*memo[T], key K) *memo[T] {
	mu.Lock()
	defer mu.Unlock()
	m, ok := table[key]
	if !ok {
		m = new(memo[T])
		table[key] = m
	}
	return m
}
