package experiments

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interstitial/internal/obs"
)

// waitFor blocks until ch closes or d passes, and reports which.
func waitFor(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

// TestPoolFigure3Shape pins the shape that left a worker idle through
// Figure 3: cell A of an outer fan-out computes a memo whose body fans
// out, while cell B waits on that memo. B's wait must lend its slot, so
// the inner cells get a second goroutine; each inner cell waits until two
// of them have been in flight at once, which a pool that runs the inner
// fan-out on one goroutine never reaches.
func TestPoolFigure3Shape(t *testing.T) {
	met := newLabMetrics()
	p := newPool(2, met)
	var m memo[int]
	var inFlight atomic.Int32
	two := make(chan struct{})
	var twoOnce sync.Once
	inner := func(int) {
		if inFlight.Add(1) >= 2 {
			twoOnce.Do(func() { close(two) })
		}
		if !waitFor(two, 5*time.Second) {
			t.Error("inner cells never ran two at once: the memo waiter kept its slot")
			twoOnce.Do(func() { close(two) })
		}
		inFlight.Add(-1)
	}
	p.forEach(2, func(int) {
		m.get(p, func() int {
			p.forEach(8, inner)
			return 1
		})
	})
	if w := met.poolWaits.Load(); w == 0 {
		t.Error("no pool wait recorded for the memo waiter")
	}
}

// TestPoolLateJoin opens a fan-out while every slot is busy, then frees a
// slot: the fan-out must get a helper then, not run out on its caller.
func TestPoolLateJoin(t *testing.T) {
	p := newPool(2, newLabMetrics())
	busy := make(chan struct{})    // outer cell 1 holds the other slot
	release := make(chan struct{}) // lets outer cell 1 finish
	joined := make(chan struct{})  // inner cell 1 started
	p.forEach(2, func(i int) {
		if i == 1 {
			close(busy)
			<-release
			return
		}
		if !waitFor(busy, 10*time.Second) {
			t.Error("outer cells never ran at once")
		}
		p.forEach(2, func(j int) {
			if j == 1 {
				close(joined)
				return
			}
			close(release)
			if !waitFor(joined, 10*time.Second) {
				t.Error("no helper joined the inner fan-out after a slot freed")
			}
		})
	})
}

// TestPoolMemoPoisoning panics inside a memo compute while another
// goroutine waits on it, lending its slot: both must see the panic, as
// must every later caller, and the compute must never run again.
func TestPoolMemoPoisoning(t *testing.T) {
	p := newPool(2, newLabMetrics())
	var m memo[int]
	var computes atomic.Int32
	boom := errors.New("boom")
	compute := func() int {
		computes.Add(1)
		// Hold the compute until the other cell is blocked in the wait.
		deadline := time.Now().Add(10 * time.Second)
		for {
			p.mu.Lock()
			lent := p.lent
			p.mu.Unlock()
			if lent > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Error("the memo waiter never lent its slot")
				break
			}
			runtime.Gosched()
		}
		panic(boom)
	}
	get := func() (r any) {
		defer func() { r = recover() }()
		m.get(p, compute)
		return nil
	}
	var got [3]any
	p.forEach(2, func(i int) { got[i] = get() })
	got[2] = get()
	for i, r := range got {
		if r != boom {
			t.Errorf("caller %d recovered %v, want the compute's panic %v", i, r, boom)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("poisoned memo computed %d times, want 1", n)
	}
}

// poolTree is a random acyclic program of nested fan-outs and memo waits.
// A cell is a leaf, a nested fan-out (child), or a wait on memo k; memo
// j's body only waits on memos below j, so the memo graph is acyclic.
type poolTree struct {
	root  *treeNode
	memos []treeMemo
}

type treeNode struct {
	cells []treeCell
	ran   []atomic.Int32 // runs per cell index
}

type treeCell struct {
	child *treeNode
	memo  int // -1: none
}

type treeMemo struct {
	m        memo[int]
	body     *treeNode
	computes atomic.Int32
}

func genTree(seed int64) *poolTree {
	r := rand.New(rand.NewSource(seed))
	var node func(depth, memos int) *treeNode
	node = func(depth, memos int) *treeNode {
		n := 1 + r.Intn(4)
		nd := &treeNode{cells: make([]treeCell, n), ran: make([]atomic.Int32, n)}
		for i := range nd.cells {
			nd.cells[i].memo = -1
			switch x := r.Intn(10); {
			case x < 4 && depth > 0:
				nd.cells[i].child = node(depth-1, memos)
			case x < 7 && memos > 0:
				nd.cells[i].memo = r.Intn(memos)
			}
		}
		return nd
	}
	tr := &poolTree{memos: make([]treeMemo, 2+r.Intn(5))}
	for j := range tr.memos {
		tr.memos[j].body = node(2, j)
	}
	tr.root = node(3, len(tr.memos))
	// Every memo is waited on at least once, from the root fan-out.
	for j := range tr.memos {
		tr.root.cells = append(tr.root.cells, treeCell{memo: j})
	}
	tr.root.ran = make([]atomic.Int32, len(tr.root.cells))
	return tr
}

// boundProbe counts the goroutines running cell code outside any pool
// call, and checks the pool's helper bound whenever that count rises.
type boundProbe struct {
	p       *pool
	running atomic.Int64
	peak    obs.MaxGauge
	broken  atomic.Int32 // times helpers exceeded Workers−1 plus the blocked
}

func (b *boundProbe) enter() {
	b.peak.Observe(b.running.Add(1))
	b.p.mu.Lock()
	if b.p.helpers > b.p.extra+b.p.lent+b.p.reclaim {
		b.broken.Add(1)
	}
	b.p.mu.Unlock()
}

func (b *boundProbe) leave() { b.running.Add(-1) }

// run executes nd's fan-out; the caller is inside cell code (entered).
func (tr *poolTree) run(b *boundProbe, nd *treeNode) {
	b.leave()
	b.p.forEach(len(nd.cells), func(i int) {
		b.enter()
		defer b.leave()
		nd.ran[i].Add(1)
		c := nd.cells[i]
		switch {
		case c.child != nil:
			tr.run(b, c.child)
		case c.memo >= 0:
			tm := &tr.memos[c.memo]
			b.leave()
			tm.m.get(b.p, func() int {
				b.enter()
				defer b.leave()
				tm.computes.Add(1)
				tr.run(b, tm.body)
				return 0
			})
			b.enter()
		default:
			for k := 0; k < 3; k++ {
				runtime.Gosched()
			}
		}
	})
	b.enter()
}

// runTree runs tr on a fresh pool of the given size, failing the test if
// it does not finish within a minute.
func runTree(t *testing.T, tr *poolTree, workers int) *boundProbe {
	t.Helper()
	b := &boundProbe{p: newPool(workers, newLabMetrics())}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.enter()
		tr.run(b, tr.root)
		b.leave()
	}()
	if !waitFor(done, time.Minute) {
		var stacks bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		t.Fatalf("workers=%d: pool deadlocked\n%s", workers, stacks.String())
	}
	return b
}

// TestPoolRandomTreesNoDeadlock runs random acyclic trees of nested
// fan-outs and memo waits at several pool sizes: every run must finish,
// every cell index must run exactly once, and every memo compute once.
func TestPoolRandomTreesNoDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for seed := int64(1); seed <= 25; seed++ {
			tr := genTree(seed)
			runTree(t, tr, workers)
			var check func(nd *treeNode)
			check = func(nd *treeNode) {
				for i := range nd.cells {
					if n := nd.ran[i].Load(); n != 1 {
						t.Fatalf("workers=%d seed=%d: a cell ran %d times, want 1", workers, seed, n)
					}
					if c := nd.cells[i].child; c != nil {
						check(c)
					}
				}
			}
			check(tr.root)
			for j := range tr.memos {
				if n := tr.memos[j].computes.Load(); n != 1 {
					t.Fatalf("workers=%d seed=%d: memo %d computed %d times, want 1", workers, seed, j, n)
				}
				check(tr.memos[j].body)
			}
		}
	}
}

// TestPoolHelperBound checks the pool's bound on the same random trees:
// helpers never outnumber Workers−1 plus the goroutines blocked in a pool
// wait, so at most Workers goroutines run cell code at once.
func TestPoolHelperBound(t *testing.T) {
	lent := false
	for _, workers := range []int{1, 2, 3, 8} {
		for seed := int64(1); seed <= 25; seed++ {
			b := runTree(t, genTree(seed), workers)
			if n := b.broken.Load(); n != 0 {
				t.Fatalf("workers=%d seed=%d: helpers exceeded Workers-1 plus the blocked %d times", workers, seed, n)
			}
			if peak := b.peak.Load(); peak > int64(workers) {
				t.Fatalf("workers=%d seed=%d: %d goroutines ran cells at once", workers, seed, peak)
			}
			lent = lent || b.p.met.poolWaits.Load() > 0
		}
	}
	if !lent {
		t.Fatal("no tree blocked in a pool wait; the bound went untested")
	}
}
