package netfloor

import (
	"reflect"
	"testing"
)

// Dispatcher edge cases: the hedging/dedup state machine under duplicate
// hedged results, late losers, and requeue ordering — the exactly-once
// core the lot server leans on. The single-index cases run at k=1, where
// a batch is one index and the order is the per-device order.

// next1 pulls a one-index batch, reporting whether there was one.
func next1(d *Dispatcher, hedge bool) (int, bool) {
	idxs := d.Next(1, hedge)
	if len(idxs) == 0 {
		return 0, false
	}
	return idxs[0], true
}

func TestDispatcherFreshThenHedge(t *testing.T) {
	d := NewDispatcher([]int{0, 1, 2}, 3)
	// Fresh queue drains in FIFO order.
	for want := 0; want < 3; want++ {
		if idx, ok := next1(d, true); !ok || idx != want {
			t.Fatalf("Next #%d = (%d, %v), want (%d, true)", want, idx, ok, want)
		}
	}
	// Queue dry: hedging picks the lowest single-holder index.
	if idx, ok := next1(d, true); !ok || idx != 0 {
		t.Fatalf("hedge = (%d, %v), want (0, true)", idx, ok)
	}
	// With hedge disabled there is nothing to hand out.
	if idxs := d.Next(1, false); len(idxs) != 0 {
		t.Fatalf("Next(1, false) handed out %v from an empty queue", idxs)
	}
}

func TestDispatcherHedgeSkipsDoubleHeld(t *testing.T) {
	d := NewDispatcher([]int{0, 1}, 2)
	next1(d, true) // 0 in flight
	next1(d, true) // 1 in flight
	if idx, ok := next1(d, true); !ok || idx != 0 {
		t.Fatalf("first hedge = (%d, %v), want (0, true)", idx, ok)
	}
	// Index 0 now has two holders: the next hedge must pick 1, and once
	// every index is double-held there is nothing left to hedge.
	if idx, ok := next1(d, true); !ok || idx != 1 {
		t.Fatalf("second hedge = (%d, %v), want (1, true)", idx, ok)
	}
	if _, ok := next1(d, true); ok {
		t.Fatal("hedged an index that already has two holders")
	}
}

func TestDispatcherDuplicateHedgedResults(t *testing.T) {
	d := NewDispatcher([]int{0}, 1)
	next1(d, true) // original holder
	next1(d, true) // hedge holder
	// Both sites answer: only the first commit wins.
	if !d.Complete(0) {
		t.Fatal("first result did not commit")
	}
	if d.Complete(0) {
		t.Fatal("duplicate hedged result committed twice")
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", d.Remaining())
	}
	// Late losers release without requeuing the finished index.
	if d.Release(0) {
		t.Fatal("winner's release requeued a completed index")
	}
	if d.Release(0) {
		t.Fatal("late loser's release requeued a completed index")
	}
	if _, ok := next1(d, true); ok {
		t.Fatal("completed index was handed out again")
	}
}

func TestDispatcherLateLoserAfterRequeue(t *testing.T) {
	// A site dies holding index 0; the release requeues it at the FRONT
	// (it has waited longest), ahead of untouched work.
	d := NewDispatcher([]int{0, 1}, 2)
	next1(d, true) // 0 to the doomed site
	if !d.Release(0) {
		t.Fatal("sole holder's release did not requeue")
	}
	if idx, ok := next1(d, false); !ok || idx != 0 {
		t.Fatalf("after requeue fresh Next = (%d, %v), want (0, true)", idx, ok)
	}
	// The dead site's result arrives anyway (the transport delivered it
	// late): it commits — screening is pure, so it equals the retry's.
	if !d.Complete(0) {
		t.Fatal("late result did not commit")
	}
	// The retry holder finishes and its duplicate is absorbed.
	if d.Complete(0) {
		t.Fatal("retry result committed twice")
	}
	d.Release(0)
	if idx, ok := next1(d, true); !ok || idx != 1 {
		t.Fatalf("Next = (%d, %v), want (1, true)", idx, ok)
	}
}

func TestDispatcherRequeueDoesNotResurrectDone(t *testing.T) {
	// An index completed while queued (a stray duplicate frame landed
	// before its requeue was handed out) must be skipped by Next.
	d := NewDispatcher([]int{0, 1}, 2)
	next1(d, true) // 0 in flight
	d.Release(0)   // requeued at front
	d.Complete(0)  // stray result commits it while queued
	if idx, ok := next1(d, true); !ok || idx != 1 {
		t.Fatalf("Next = (%d, %v), want (1, true) — done index must be skipped", idx, ok)
	}
}

func TestDispatcherReplayedDevicesNeverAssigned(t *testing.T) {
	// Journal replay: only pending indices are handed out; the rest are
	// born complete.
	d := NewDispatcher([]int{1, 3}, 4)
	if d.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", d.Remaining())
	}
	seen := map[int]bool{}
	for {
		idx, ok := next1(d, false)
		if !ok {
			break
		}
		seen[idx] = true
	}
	if !seen[1] || !seen[3] || len(seen) != 2 {
		t.Fatalf("assigned %v, want exactly {1, 3}", seen)
	}
	if d.Complete(0) || d.Complete(2) {
		t.Fatal("replayed device committed as if screened")
	}
}

// TestDispatcherBatchFreshFIFO: a batch takes up to k fresh indices in
// queue order, skipping done ones, and never mixes in hedges while any
// fresh index is left — even when the fresh part is shorter than k.
func TestDispatcherBatchFreshFIFO(t *testing.T) {
	d := NewDispatcher([]int{0, 1, 2, 3, 4}, 5)
	d.Complete(1) // a stray result committed it while queued
	if got := d.Next(3, true); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("first batch = %v, want [0 2 3]", got)
	}
	if got := d.Next(3, true); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("second batch = %v, want the lone fresh [4], no hedges", got)
	}
}

// TestDispatcherHedgeBatch: with the queue dry, a hedge batch takes up to
// k undone indices that have exactly one holder, lowest first — never a
// done index and never one that already has two holders.
func TestDispatcherHedgeBatch(t *testing.T) {
	d := NewDispatcher([]int{0, 1, 2, 3, 4, 5}, 6)
	if got := d.Next(6, true); len(got) != 6 {
		t.Fatalf("fresh batch = %v, want all six", got)
	}
	d.Complete(1)  // done: never hedged
	next1(d, true) // hedges 0: it now has two holders
	d.Complete(4)  // done: never hedged
	if got := d.Next(2, true); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("hedge batch = %v, want [2 3] (k bounds it)", got)
	}
	if got := d.Next(8, true); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("hedge batch = %v, want [5] — 0, 2, 3 are double-held, 1 and 4 done", got)
	}
	if got := d.Next(8, true); len(got) != 0 {
		t.Fatalf("hedge batch = %v, want nothing left to hedge", got)
	}
	if got := d.Next(8, false); len(got) != 0 {
		t.Fatalf("Next(8, false) = %v from a dry queue", got)
	}
}
