package advisor

import (
	"errors"
	"testing"
)

// TestFlightLRUBound: past its bound a flight keeps the most recently
// used values, and get counts as a use.
func TestFlightLRUBound(t *testing.T) {
	f := newFlight[int, string](2)
	put := func(k int) {
		c, owner := f.join(k)
		if !owner {
			t.Fatalf("join(%d) joined a call nobody owns", k)
		}
		f.settle(k, c, "v", nil, true)
	}
	put(1)
	put(2)
	put(3)
	if _, ok := f.get(1); ok || f.len() != 2 {
		t.Fatalf("bound 2 over 3 keys: key 1 kept=%v, len %d; want evicted, 2", ok, f.len())
	}
	f.get(2) // 2 is now newer than 3
	put(4)
	if _, ok := f.get(2); !ok {
		t.Fatal("a key bumped by get was evicted")
	}
	if _, ok := f.get(3); ok {
		t.Fatal("the coldest key survived past the bound")
	}
}

// TestFlightSettleWithoutKeep: an owner that does not keep its value
// still wakes its waiters with (v, err), stores nothing, and leaves the
// next join to own a fresh call.
func TestFlightSettleWithoutKeep(t *testing.T) {
	f := newFlight[string, int](4)
	c, owner := f.join("k")
	if !owner {
		t.Fatal("first join is not the owner")
	}
	w, owner := f.join("k")
	if owner || w != c {
		t.Fatal("second join did not join the owner's call")
	}
	boom := errors.New("boom")
	got := make(chan error)
	go func() {
		<-w.done
		if w.v != 7 {
			got <- errors.New("waiter saw the wrong value")
			return
		}
		got <- w.err
	}()
	f.settle("k", c, 7, boom, false)
	if err := <-got; err != boom {
		t.Fatalf("waiter woke with %v, want %v", err, boom)
	}
	if _, ok := f.get("k"); ok || f.len() != 0 {
		t.Fatalf("unkept value stored (len %d)", f.len())
	}
	if c2, owner := f.join("k"); !owner || c2 == c {
		t.Fatal("join after an unkept settle did not own a fresh call")
	}
}
