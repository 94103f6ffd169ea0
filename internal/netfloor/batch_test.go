package netfloor_test

import (
	"testing"

	"repro/internal/floor"
	"repro/internal/netfloor"
)

// TestMixedBatchBitIdentity runs the distributed floor with heterogeneous
// site capabilities: site0 advertises batches of 16 (MaxBatch 16), site1
// takes one device per assignment (MaxBatch 1). The server asks for Batch
// 16 and must negotiate down per connection, so the same lot flows
// through the batched kernel at K=16 and at K=1 while the exactly-once
// dispatcher dedups across them. Bins must match the serial
// engine bit for bit, clean transport and faulted alike.
func TestMixedBatchBitIdentity(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 48)
	faults := floor.DefaultFaultModel(0.15)
	const seed = 99

	serial, err := f.engine().RunLot(seed, lot, faults)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("clean-transport", func(t *testing.T) {
		fm := newFarm(t, f, lot, faults, 2)
		fm.sites["site0"].MaxBatch = 16
		fm.sites["site1"].MaxBatch = 1
		opt := remoteOpts(f, lot, faults, fm.addrs, fm.dialer(netfloor.FaultProfile{}, 0))
		opt.Batch = 16
		res, _ := mustServe(t, opt, spec(seed, lot))
		reportsEqual(t, "serial vs mixed-K distributed", serial, res.Report)
		// Batched frames carry many devices per assignment, so the frame
		// count must land well under one-per-device even though site1
		// screens strictly one at a time.
		if res.Assigns >= len(lot) {
			t.Fatalf("mixed-K floor sent %d assignments for %d devices; batching never engaged", res.Assigns, len(lot))
		}
	})

	t.Run("faulty-transport", func(t *testing.T) {
		fm := newFarm(t, f, lot, faults, 2)
		fm.sites["site0"].MaxBatch = 16
		fm.sites["site1"].MaxBatch = 1
		prof := netfloor.FaultProfile{DropP: 0.03, DupP: 0.05, PartitionAfter: 150}
		opt := remoteOpts(f, lot, faults, fm.addrs, fm.dialer(prof, 1311))
		opt.Batch = 16
		res, _ := mustServe(t, opt, spec(seed, lot))
		reportsEqual(t, "serial vs mixed-K distributed under faults", serial, res.Report)
	})

	// Both sites batching: the pure-batched floor must agree too.
	t.Run("all-batched", func(t *testing.T) {
		fm := newFarm(t, f, lot, faults, 2)
		fm.sites["site0"].MaxBatch = 16
		fm.sites["site1"].MaxBatch = 4
		opt := remoteOpts(f, lot, faults, fm.addrs, fm.dialer(netfloor.FaultProfile{}, 2))
		opt.Batch = 16
		res, _ := mustServe(t, opt, spec(seed, lot))
		reportsEqual(t, "serial vs all-batched distributed", serial, res.Report)
	})
}
