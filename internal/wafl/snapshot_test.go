package wafl

import (
	"errors"
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

func snapFixture(t *testing.T) (*System, *LUN) {
	t.Helper()
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	return s, lun
}

func TestSnapshotPinsBlocks(t *testing.T) {
	s, lun := snapFixture(t)
	vol := s.Agg.Vols()[0]
	usedBefore := s.Agg.bm.Used()

	sn, err := s.CreateSnapshot(lun, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if sn.Blocks() != 5000 {
		t.Fatalf("snapshot holds %d blocks", sn.Blocks())
	}
	// Snapshot creation allocates nothing.
	if s.Agg.bm.Used() != usedBefore {
		t.Fatal("snapshot creation moved data")
	}
	// Overwrite everything: COW must NOT free the snapshot's blocks.
	oldPhys := lun.Phys(0)
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if !s.Agg.bm.Test(oldPhys) {
		t.Fatal("snapshot-held physical block was freed by overwrite")
	}
	if s.Agg.bm.Used() != 2*5000 {
		t.Fatalf("used = %d, want 10000 (live + snapshot)", s.Agg.bm.Used())
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	checkConsistencyWithSnapshots(t, s)
}

func TestSnapshotDeleteFreesBulk(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "snap1")
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	freed, err := s.DeleteSnapshot(lun, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if freed != 5000 {
		t.Fatalf("delete freed %d, want 5000", freed)
	}
	s.CP()
	if s.Agg.bm.Used() != 5000 {
		t.Fatalf("used = %d after delete", s.Agg.bm.Used())
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, s) // no snapshots remain; strict check applies
}

func TestSnapshotDeleteRespectsSharedBlocks(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "snap1")
	// Overwrite only half; the other half stays shared between the active
	// image and the snapshot.
	for lba := uint64(0); lba < 2500; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	freed, err := s.DeleteSnapshot(lun, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if freed != 2500 {
		t.Fatalf("delete freed %d, want 2500 (only the diverged half)", freed)
	}
	// Shared blocks remain readable through the active image.
	if !s.Agg.bm.Test(lun.Phys(4000)) {
		t.Fatal("shared block freed by snapshot delete")
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleSnapshotsRefcounting(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "a")
	for lba := uint64(0); lba < 1000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.CreateSnapshot(lun, "b")
	for lba := uint64(1000); lba < 2000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if got := lun.SnapshotNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("snapshots = %v", got)
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	// Deleting a frees only blocks unique to a (LBAs 0..1000 old copies).
	freedA, err := s.DeleteSnapshot(lun, "a")
	if err != nil {
		t.Fatal(err)
	}
	if freedA != 1000 {
		t.Fatalf("delete a freed %d, want 1000", freedA)
	}
	freedB, err := s.DeleteSnapshot(lun, "b")
	if err != nil {
		t.Fatal(err)
	}
	if freedB != 1000 {
		t.Fatalf("delete b freed %d, want 1000", freedB)
	}
	if s.Agg.bm.Used() != 5000 {
		t.Fatalf("used = %d after all deletes", s.Agg.bm.Used())
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreSnapshot(t *testing.T) {
	s, lun := snapFixture(t)
	origPhys := lun.Phys(100)
	s.CreateSnapshot(lun, "before")
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if lun.Phys(100) == origPhys {
		t.Fatal("overwrite did not move the block")
	}
	s.RestoreSnapshot(lun, "before")
	if lun.Phys(100) != origPhys {
		t.Fatalf("restore did not roll back: %v != %v", lun.Phys(100), origPhys)
	}
	// The post-snapshot writes' blocks were freed by the restore.
	s.CP()
	if s.Agg.bm.Used() != 5000 {
		t.Fatalf("used = %d after restore", s.Agg.bm.Used())
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	// Snapshot still exists and can be deleted; shared blocks survive.
	s.DeleteSnapshot(lun, "before")
	if !s.Agg.bm.Test(lun.Phys(100)) {
		t.Fatal("active block freed by post-restore snapshot delete")
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotPanics(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "x")
	vol := lun.vol
	// An unreferenced VBN on an allocated refcount page, and one on a page
	// no write has touched.
	zero := block.VBN(0)
	for vol.rc.at(zero) != 0 {
		zero++
	}
	untouched := block.InvalidVBN
	for pi, pg := range vol.rc.pages {
		if pg == nil {
			untouched = block.VBN(pi * rcPage)
			break
		}
	}
	if untouched == block.InvalidVBN {
		t.Fatal("fixture left no refcount page unallocated")
	}
	for name, f := range map[string]func(){
		"duplicate":          func() { s.CreateSnapshot(lun, "x") },
		"delete missing":     func() { s.DeleteSnapshot(lun, "nope") },
		"restore missing":    func() { s.RestoreSnapshot(lun, "nope") },
		"double refNew":      func() { vol.refNew(lun.Virt(0)) },
		"ref unreferenced":   func() { vol.ref(zero) },
		"ref untouched page": func() { vol.ref(untouched) },
		"unref unreferenced": func() { s.unref(vol, blockPtr{virt: zero, phys: lun.Phys(0)}) },
		"unref untouched page": func() {
			s.unref(vol, blockPtr{virt: untouched, phys: lun.Phys(0)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	// Mid-CP operations return the typed boundary error, not a panic.
	s.Write(lun, 0, 1)
	for name, f := range map[string]func() error{
		"create mid-CP": func() error { _, err := s.CreateSnapshot(lun, "y"); return err },
		"delete mid-CP": func() error { _, err := s.DeleteSnapshot(lun, "x"); return err },
		"restore mid-CP": func() error {
			return s.RestoreSnapshot(lun, "x")
		},
		"punch mid-CP": func() error {
			_, err := s.PunchHoles(lun, func(uint64) bool { return true })
			return err
		},
	} {
		if err := f(); !errors.Is(err, ErrCPInProgress) {
			t.Errorf("%s: err = %v, want ErrCPInProgress", name, err)
		}
	}
	// The errors are recoverable: after a CP the operations proceed.
	s.CP()
	if _, err := s.CreateSnapshot(lun, "y"); err != nil {
		t.Fatalf("create after CP: %v", err)
	}
}

// TestSnapshotMidFlightRejected pins the pipelined half of the boundary
// gate: with a sealed generation in flight (writes already allocated but
// not yet committed), snapshot ops return ErrCPInProgress until Drain.
func TestSnapshotMidFlightRejected(t *testing.T) {
	tun := DefaultTunables()
	tun.Pipeline = true
	s := testSystem(t, tun)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
	for lba := uint64(0); lba < 2000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP() // seals gen 1; it stays in flight
	if !s.InFlight() {
		t.Fatal("no generation in flight after pipelined CP")
	}
	if _, err := s.CreateSnapshot(lun, "x"); !errors.Is(err, ErrCPInProgress) {
		t.Fatalf("create in flight: err = %v, want ErrCPInProgress", err)
	}
	s.Drain()
	if s.InFlight() {
		t.Fatal("still in flight after Drain")
	}
	if _, err := s.CreateSnapshot(lun, "x"); err != nil {
		t.Fatalf("create after Drain: %v", err)
	}
	if _, err := s.DeleteSnapshot(lun, "x"); err != nil {
		t.Fatalf("delete after Drain: %v", err)
	}
}

func TestCleanerRelocatesSnapshotBlocks(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "pinned")
	// Diverge, then fragment to give the cleaner work.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8000; i++ {
		s.Write(lun, uint64(rng.Intn(20000)), 1)
	}
	s.CP()
	st := s.CleanBestAAs(s.Agg.groups[0], 6)
	s.CP()
	_ = st
	// Snapshot pointers must have followed any relocations: every snapshot
	// physical block is still allocated.
	sn := lun.Snapshot("pinned")
	for _, p := range sn.blocks {
		if p.phys != block.InvalidVBN && !s.Agg.bm.Test(p.phys) {
			t.Fatalf("snapshot references freed physical %v", p.phys)
		}
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	// Deleting the snapshot after cleaning stays consistent.
	s.DeleteSnapshot(lun, "pinned")
	s.CP()
	checkConsistency(t, s)
}

// Snapshot deletion creates the nonuniform free space the paper mentions
// (§4.1.1): after deleting a snapshot, AA scores diverge and the cache's
// best pick improves.
func TestSnapshotDeleteImprovesBestAA(t *testing.T) {
	s, lun := snapFixture(t)
	// Fill most of the aggregate so scores are meaningful.
	for lba := uint64(5000); lba < 20000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.CreateSnapshot(lun, "big")
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20000; i++ {
		s.Write(lun, uint64(rng.Intn(20000)), 1)
	}
	s.CP()
	bestBefore, _ := s.Agg.groups[0].cache.Best()
	s.DeleteSnapshot(lun, "big")
	s.CP()
	bestAfter, _ := s.Agg.groups[0].cache.Best()
	if bestAfter.Score < bestBefore.Score {
		t.Fatalf("best AA score fell after snapshot delete: %d -> %d",
			bestBefore.Score, bestAfter.Score)
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

// checkConsistencyWithSnapshots relaxes checkConsistency's "aggregate used
// equals active LUN blocks" to include snapshot references.
func checkConsistencyWithSnapshots(t *testing.T, s *System) {
	t.Helper()
	var refs uint64
	for _, v := range s.Agg.vols {
		if err := v.CheckRefcounts(); err != nil {
			t.Fatal(err)
		}
		refs += v.bm.Used()
	}
	if s.Agg.bm.Used() != refs {
		t.Fatalf("aggregate used %d != virtual used %d", s.Agg.bm.Used(), refs)
	}
}

// TestCheckRefcountsCatchesCorruption proves CheckRefcounts can fail: each
// case corrupts the refcount table of a clean volume (some counts at 2,
// held by a snapshot) and must be reported.
func TestCheckRefcountsCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(v *FlexVol, l *LUN){
		"bump one count": func(v *FlexVol, l *LUN) { *v.rc.slot(l.Virt(7))++ },
		"zero one referenced count": func(v *FlexVol, l *LUN) {
			*v.rc.slot(l.Virt(7)) = 0
		},
		"skew live": func(v *FlexVol, l *LUN) { v.rc.live++ },
	} {
		s, lun := snapFixture(t)
		if _, err := s.CreateSnapshot(lun, "s"); err != nil {
			t.Fatal(err)
		}
		for lba := uint64(0); lba < 100; lba++ {
			s.Write(lun, lba, 1)
		}
		s.CP()
		vol := lun.vol
		if err := vol.CheckRefcounts(); err != nil {
			t.Fatalf("%s: clean volume fails the check: %v", name, err)
		}
		corrupt(vol, lun)
		if err := vol.CheckRefcounts(); err == nil {
			t.Errorf("%s: CheckRefcounts = nil, want an error", name)
		}
	}
}

// TestRefcountPagesThin pins thin provisioning's cost: a fig10-shaped volume
// (16×16 AAs of virtual space) that has written 4,096 blocks into one AA
// holds exactly one refcount page.
func TestRefcountPagesThin(t *testing.T) {
	tun := DefaultTunables()
	tun.CPEveryOps = 1 << 30
	vols := []VolSpec{{Name: "thin", Blocks: 16 * 16 * aa.RAIDAgnosticBlocks}}
	s := NewSystem(testSpecs(), vols, tun, 1)
	vol := s.Agg.Vols()[0]
	lun := vol.CreateLUN("lun0", 4096)
	s.Write(lun, 0, 4096)
	s.CP()
	if got, want := len(vol.rc.pages), 16*16; got != want {
		t.Fatalf("refcount page table has %d slots, want %d", got, want)
	}
	pages := 0
	for _, pg := range vol.rc.pages {
		if pg != nil {
			pages++
		}
	}
	if pages != 1 || vol.rc.live != 4096 {
		t.Fatalf("%d refcount pages, %d live entries; want 1 page, 4096 live", pages, vol.rc.live)
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}
