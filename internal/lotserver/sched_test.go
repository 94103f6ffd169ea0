package lotserver

import (
	"reflect"
	"testing"

	"repro/internal/netfloor"
)

// TestSchedulerBatchesNeverSpanLots: a batch comes from exactly one lot,
// even when that lot's fresh queue is shorter than k; the cursor then
// moves on to the next lot, and hedge batches only follow once every
// lot's fresh queue is dry.
func TestSchedulerBatchesNeverSpanLots(t *testing.T) {
	a := &lot{disp: netfloor.NewDispatcher([]int{0, 1, 2}, 3)}
	b := &lot{disp: netfloor.NewDispatcher([]int{0, 1, 2, 3, 4}, 5)}
	var sc scheduler
	sc.add(a)
	sc.add(b)

	pull := func(k int, hedge bool, wantLot *lot, want []int) {
		t.Helper()
		l, idxs, ok := sc.next(k, hedge)
		if want == nil {
			if ok {
				t.Fatalf("next(%d, %v) handed out %v, want nothing", k, hedge, idxs)
			}
			return
		}
		if !ok || l != wantLot || !reflect.DeepEqual(idxs, want) {
			t.Fatalf("next(%d, %v) = (%p, %v, %v), want (%p, %v, true)", k, hedge, l, idxs, ok, wantLot, want)
		}
	}
	pull(4, true, a, []int{0, 1, 2}) // a's whole queue, nothing of b's
	pull(4, true, b, []int{0, 1, 2, 3})
	pull(4, true, b, []int{4}) // a is dry: b again, still only b
	pull(4, false, nil, nil)   // every fresh queue dry, no hedging asked
	if got := sc.inflightCount(); got != 8 {
		t.Fatalf("inflight = %d, want 8", got)
	}
	pull(2, true, a, []int{0, 1}) // hedges: one lot, up to k, lowest first
	pull(8, true, b, []int{0, 1, 2, 3, 4})
	sc.done(15)
	if got := sc.inflightCount(); got != 0 {
		t.Fatalf("inflight after done = %d, want 0", got)
	}
}
