package lotserver

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/floor"
	"repro/internal/netfloor"
)

// TestBatchedServerBitIdentical runs the multi-lot server with batching at
// every layer — batched local workers, one K=16 remote site and one K=1
// remote site — over a faulty transport, and requires
// every lot's report to match the serial reference bit for bit. This is
// the lotserver leg of the batched-kernel determinism contract: the fair
// scheduler hands out same-lot batches, the K=1 site negotiates the
// server's batch down to one device, and the exactly-once commit gate absorbs the duplicates that
// retries and hedges produce.
func TestBatchedServerBitIdentical(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	faults := floor.DefaultFaultModel(0.10)

	specs := []LotSpec{
		{ID: "alpha", Seed: 99, Devices: 36},
		{ID: "beta", Seed: 1234, Devices: 25},
		{ID: "gamma", Seed: 42, Devices: 12},
	}
	runAll := func(t *testing.T, opt Options) {
		t.Helper()
		s, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Kill()
		handles := make([]*LotHandle, len(specs))
		for i, spec := range specs {
			h, err := s.Submit(context.Background(), spec)
			if err != nil {
				t.Fatalf("submit %s: %v", spec.ID, err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			res, err := h.Wait(context.Background())
			if err != nil {
				t.Fatalf("lot %s: %v", specs[i].ID, err)
			}
			reportsEqual(t, specs[i].ID, res.Report, serialReference(t, f, pool, specs[i], faults))
		}
	}

	t.Run("local-workers", func(t *testing.T) {
		opt := serverOpts(f, pool, faults)
		opt.LocalWorkers = 2
		opt.Batch = 8
		opt.MaxActiveLots = 3
		runAll(t, opt)
	})

	t.Run("mixed-sites", func(t *testing.T) {
		fm := newFarm(t, f, pool, faults, 2)
		fm.sites["site0"].MaxBatch = 16
		fm.sites["site1"].MaxBatch = 1
		opt := serverOpts(f, pool, faults)
		opt.Sites = fm.addrs
		opt.Dialer = fm.dialer(netfloor.FaultProfile{DropP: 0.03, DupP: 0.05, DelayP: 0.10, DelayMax: 2 * time.Millisecond}, 17)
		opt.NetSeed = 17
		opt.Batch = 16
		opt.JournalDir = t.TempDir()
		opt.MaxActiveLots = 3
		runAll(t, opt)
	})
}

// TestLocalWorkersNeverHedge: local workers share one host's CPU, so a
// hedge between them screens the same device twice for nothing. One
// worker stalls in Hook on its first device long enough for the other to
// run every fresh queue dry; the idle worker must wait rather than race
// the stalled batch. Every (lot, device) reaches Hook exactly once, and
// the bins equal the serial reference.
func TestLocalWorkersNeverHedge(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 24)
	specs := []LotSpec{
		{ID: "wide", Seed: 61, Devices: 24},
		{ID: "narrow", Seed: 62, Devices: 5},
	}
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 2
	var mu sync.Mutex
	hooked := make(map[string]int)
	opt.Hook = func(lotID string, device int) {
		mu.Lock()
		key := fmt.Sprintf("%s/%d", lotID, device)
		hooked[key]++
		first := len(hooked) == 1 && hooked[key] == 1
		mu.Unlock()
		if first {
			time.Sleep(50 * time.Millisecond)
		}
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	handles := make([]*LotHandle, len(specs))
	for i, spec := range specs {
		if handles[i], err = s.Submit(context.Background(), spec); err != nil {
			t.Fatalf("submit %s: %v", spec.ID, err)
		}
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("lot %s: %v", specs[i].ID, err)
		}
		reportsEqual(t, specs[i].ID, res.Report, serialReference(t, f, pool, specs[i], nil))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, spec := range specs {
		for d := 0; d < spec.Devices; d++ {
			if n := hooked[fmt.Sprintf("%s/%d", spec.ID, d)]; n != 1 {
				t.Errorf("lot %s device %d reached Hook %d times, want exactly once", spec.ID, d, n)
			}
		}
	}
}
