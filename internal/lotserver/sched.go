package lotserver

// The fair scheduler: a round-robin cursor over the active lots, so every
// worker (remote site loop or local screener) pulls its next assignment
// from the lot that has waited longest. A mega-lot cannot starve a small
// one — each scheduling round hands the small lot exactly as many devices
// as the big one — and because each lot's Dispatcher alone decides which
// of its indices goes next, the interleaving has no effect on bins.

import "sync"

// scheduler interleaves device assignments across the active lots.
type scheduler struct {
	mu       sync.Mutex
	lots     []*lot
	cursor   int
	paused   bool
	inflight int
}

// add puts a lot into the rotation.
func (sc *scheduler) add(l *lot) {
	sc.mu.Lock()
	sc.lots = append(sc.lots, l)
	sc.mu.Unlock()
}

// remove takes a lot out of the rotation (completed, cancelled or failed).
func (sc *scheduler) remove(l *lot) {
	sc.mu.Lock()
	for i, x := range sc.lots {
		if x == l {
			sc.lots = append(sc.lots[:i], sc.lots[i+1:]...)
			if sc.cursor > i {
				sc.cursor--
			}
			break
		}
	}
	sc.mu.Unlock()
}

// pause stops handing out assignments (stage two of a graceful drain);
// in-flight assignments finish normally.
func (sc *scheduler) pause() {
	sc.mu.Lock()
	sc.paused = true
	sc.mu.Unlock()
}

// next picks the next assignment: a batch of up to k indices from a
// single lot, so one kernel call (or one remote frame) carries exactly
// one (seed, lot) pair. One full round-robin pass over the active lots
// looks for fresh (unassigned) indices first; only when no lot anywhere
// has fresh work, and hedge is set, does a second pass allow straggler
// hedges. Each successful pull advances the cursor past the chosen lot,
// which is the fairness guarantee. The caller must call done(len(idxs))
// when the batch resolves (results delivered or released back).
func (sc *scheduler) next(k int, hedge bool) (*lot, []int, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.paused || len(sc.lots) == 0 {
		return nil, nil, false
	}
	n := len(sc.lots)
	for pass := 0; pass < 2; pass++ {
		if pass == 1 && !hedge {
			break
		}
		for i := 0; i < n; i++ {
			cand := sc.lots[(sc.cursor+i)%n]
			if idxs := cand.disp.Next(k, pass == 1); len(idxs) > 0 {
				sc.cursor = (sc.cursor + i + 1) % n
				sc.inflight += len(idxs)
				return cand, idxs, true
			}
		}
	}
	return nil, nil, false
}

// done releases the n in-flight slots taken by next.
func (sc *scheduler) done(n int) {
	sc.mu.Lock()
	sc.inflight -= n
	sc.mu.Unlock()
}

// inflightCount reports how many assignments are currently held by
// workers; a paused scheduler with zero in flight is fully quiesced.
func (sc *scheduler) inflightCount() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.inflight
}
