package netfloor

import "sync"

// Dispatcher owns the exactly-once assignment state of one lot. Delivery
// is at-least-once (retries, reconnects, hedges, duplicated frames), so
// the same index can be in flight on several sites at once; Complete is
// the single commit point — first result wins, everything after is a
// counted duplicate that never reaches the journal. The lot server
// (internal/lotserver) runs one Dispatcher per active lot.
type Dispatcher struct {
	mu      sync.Mutex
	queue   []int // pending indices, FIFO
	holders []int // in-flight holder count per index
	done    []bool
	left    int // indices not yet completed
}

// NewDispatcher builds the assignment state: pending lists the indices
// still to screen, devices is the full lot size (indices outside pending
// are treated as already complete — journal-replayed devices).
func NewDispatcher(pending []int, devices int) *Dispatcher {
	d := &Dispatcher{
		queue:   append([]int(nil), pending...),
		holders: make([]int, devices),
		done:    make([]bool, devices),
		left:    len(pending),
	}
	for i := range d.done {
		d.done[i] = true
	}
	for _, idx := range pending {
		d.done[idx] = false
	}
	return d
}

// Next hands out the front pending index. When the queue is empty and
// hedge is set, it instead picks the lowest in-flight index held by
// exactly one site — straggler hedging: a second site races the (possibly
// dead or slow) holder, and the dedup absorbs whichever result loses.
// Returns (index, hedged, ok).
func (d *Dispatcher) Next(hedge bool) (int, bool, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.queue) > 0 {
		idx := d.queue[0]
		d.queue = d.queue[1:]
		if d.done[idx] {
			continue
		}
		d.holders[idx]++
		return idx, false, true
	}
	if hedge {
		for idx := range d.holders {
			if d.holders[idx] == 1 && !d.done[idx] {
				d.holders[idx]++
				return idx, true, true
			}
		}
	}
	return 0, false, false
}

// NextBatch hands out up to k pending indices from the front of the
// queue. Unlike Next it never hedges: batches are for fresh work, and a
// straggler hedge wants the smallest possible unit so the dedup wastes at
// most one device. An empty return means the queue is dry (the caller
// falls back to Next(true) for hedging).
func (d *Dispatcher) NextBatch(k int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var idxs []int
	for len(idxs) < k && len(d.queue) > 0 {
		idx := d.queue[0]
		d.queue = d.queue[1:]
		if d.done[idx] {
			continue
		}
		d.holders[idx]++
		idxs = append(idxs, idx)
	}
	return idxs
}

// Release drops one hold on idx; an undone index with no holders left is
// requeued at the front (it has waited longest). Reports whether the
// index was requeued — i.e. reassigned away from a failed site.
func (d *Dispatcher) Release(idx int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.holders[idx] > 0 {
		d.holders[idx]--
	}
	if !d.done[idx] && d.holders[idx] == 0 {
		d.queue = append([]int{idx}, d.queue...)
		return true
	}
	return false
}

// Complete marks idx done; only the first caller wins.
func (d *Dispatcher) Complete(idx int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done[idx] {
		return false
	}
	d.done[idx] = true
	d.left--
	return true
}

// Remaining reports how many indices have not yet completed.
func (d *Dispatcher) Remaining() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.left
}
