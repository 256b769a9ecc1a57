package study

import (
	"context"
	"runtime"
	"testing"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/httpserver"
)

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestCaptureSharesServed: a capture holds the served certificates, not a
// second parse of them. For each deployment shape, scanned as a unique site
// and as a Dedup slot, every captured certificate is the served one at its
// position, the list digest is the served list's, and the slot's once-scan
// lets go of its leaf and wire. Nginx has no duplicate-leaf check, so the
// duplicate-leaf deployment keeps its second leaf.
func TestCaptureSharesServed(t *testing.T) {
	cfg := Config{Seed: 1, Vantages: 1, Dedup: true}
	cfg.fillDefaults()
	d, err := newDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scanner := newSiteScanner(cfg)
	model := httpserver.Nginx()
	for i, inj := range []defect{defectNone, defectReversed, defectIrrelevant, defectDuplicateLeaf} {
		zone := slotZone(i)
		leaf, wire, got, err := d.mintDeployment("*."+zone, inj, model)
		if err != nil {
			t.Fatal(err)
		}
		if got != inj {
			t.Fatalf("%v: %s deployed it as %v", inj, model.Name, got)
		}
		slot := &studySlot{zone: zone, leaf: leaf, inj: inj, model: model, wire: wire}
		for _, dep := range []deployed{
			{site: &site{Domain: "unique." + zone}, leaf: leaf, wire: wire},
			{site: &site{Domain: "site." + zone}, slot: slot},
		} {
			out, err := scanner.scanSite(context.Background(), 0, 0, dep)
			if err != nil || out.lost {
				t.Fatalf("%v: scan failed (lost %v): %v", inj, out.lost, err)
			}
			if len(out.list) != len(wire) {
				t.Fatalf("%v: captured %d certificates, served %d", inj, len(out.list), len(wire))
			}
			for k, c := range out.list {
				if c != wire[k] {
					t.Errorf("%v (slot %v): captured certificate %d is not the served one", inj, dep.slot != nil, k)
				}
			}
			if certmodel.ListDigest(out.list) != certmodel.ListDigest(wire) {
				t.Errorf("%v (slot %v): capture digest differs from the served list's", inj, dep.slot != nil)
			}
		}
		if slot.leaf != nil || slot.wire != nil {
			t.Errorf("%v: the scanned slot still holds its leaf (%v) or wire (%v)", inj, slot.leaf != nil, slot.wire != nil)
		}
	}
}

// TestSlotRetainedHeap bounds what a distinct chain keeps alive under Dedup:
// its slot, capture and verdict-memo entry. Two 60,000-site studies at
// 99.95% reuse, over 200 and 2,000 slots, read the live heap after a GC at
// the record of rank 57,000, while the grade stage, and so the memo, is
// still running (at the last record the memo is already garbage); the
// difference per extra leaf minted is the heap one distinct chain retains.
// A capture that parsed its chain again, or a slot that kept its key, holds
// about 11 KB, and a memo entry that kept a map of the verdicts by client
// name about 250 B more than one that keeps a vector.
func TestSlotRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const sites, readAt = 60000, 60000 * 19 / 20
	live := func(distinct int) (heap uint64, leaves int) {
		cfg := Config{
			Sites: sites, Seed: 1, Vantages: 1, Concurrency: 2, Workers: 2,
			Reuse: 0.9995, DistinctChains: distinct, Dedup: true,
		}
		rep, err := RunStream(context.Background(), cfg, Stream{Record: func(rank int, _ []byte) error {
			if rank == readAt {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap = ms.HeapAlloc
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return heap, rep.LeavesGenerated
	}
	smallHeap, smallLeaves := live(200)
	largeHeap, largeLeaves := live(2000)
	perChain := (float64(largeHeap) - float64(smallHeap)) / float64(largeLeaves-smallLeaves)
	t.Logf("live heap %d B at %d leaves, %d B at %d leaves: %.0f B per distinct chain",
		smallHeap, smallLeaves, largeHeap, largeLeaves, perChain)
	if perChain > 6<<10 {
		t.Errorf("a distinct chain retains %.0f B of heap, want at most %d", perChain, 6<<10)
	}
}
