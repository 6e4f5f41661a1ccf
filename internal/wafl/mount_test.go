package wafl

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
)

// agedSystem builds, fills, and churns a system, ending at a CP boundary.
func agedSystem(t *testing.T, tun Tunables, seed int64) (*System, *LUN) {
	t.Helper()
	tun.CPEveryOps = 512
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 120000)
	for lba := uint64(0); lba < 120000; lba++ {
		s.Write(lun, lba, 1)
	}
	rng := rand.New(rand.NewSource(seed + 100))
	for i := 0; i < 60000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	return s, lun
}

func TestRemountWithTopAAIsCheap(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 1)
	bestBefore := make([]uint64, len(s.Agg.groups))
	for i, g := range s.Agg.groups {
		e, _ := g.cache.Best()
		bestBefore[i] = e.Score
	}

	ms := s.Agg.Remount(true)
	// TopAA path: 1 block per group + 2 per volume, no bitmap walk.
	wantReads := uint64(len(s.Agg.groups)) + 2*uint64(len(s.Agg.vols))
	if ms.TopAABlockReads != wantReads {
		t.Fatalf("TopAA reads = %d, want %d", ms.TopAABlockReads, wantReads)
	}
	if ms.BitmapPagesRead != 0 {
		t.Fatalf("TopAA mount read %d bitmap pages", ms.BitmapPagesRead)
	}
	if ms.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d", ms.Fallbacks)
	}
	// The seeded heaps serve the same best AA as before the crash.
	for i, g := range s.Agg.groups {
		e, ok := g.cache.Best()
		if !ok || e.Score != bestBefore[i] {
			t.Fatalf("group %d best after mount %v, want score %d", i, e, bestBefore[i])
		}
		if g.cache.Len() > 512 {
			t.Fatalf("seed cache has %d entries", g.cache.Len())
		}
	}
}

func TestRemountWithoutTopAAWalksBitmaps(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 2)
	ms := s.Agg.Remount(false)
	if ms.TopAABlockReads != 0 {
		t.Fatalf("no-TopAA mount read %d TopAA blocks", ms.TopAABlockReads)
	}
	// The walk must touch every bitmap page of aggregate + volumes.
	wantPages := s.Agg.bm.Pages()
	for _, v := range s.Agg.vols {
		wantPages += v.bm.Pages()
	}
	if ms.BitmapPagesRead < wantPages {
		t.Fatalf("bitmap pages read %d < %d", ms.BitmapPagesRead, wantPages)
	}
	// Full rebuild: every AA tracked with its bitmap score.
	for _, g := range s.Agg.groups {
		if g.cache.Len() != g.topo.NumAAs() {
			t.Fatalf("group %d cache len %d", g.Index, g.cache.Len())
		}
	}
}

func TestRemountFallsBackOnCorruption(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 3)
	// Damage one group's TopAA block and one volume's HBPS pages.
	if err := s.Agg.store.Corrupt(topaaGroupKey(0), 12); err != nil {
		t.Fatal(err)
	}
	if err := s.Agg.store.Corrupt("v", 0); err != nil {
		t.Fatal(err)
	}
	ms := s.Agg.Remount(true)
	if ms.Fallbacks != 2 {
		t.Fatalf("fallbacks = %d, want 2", ms.Fallbacks)
	}
	// Fallback spaces rebuilt from bitmaps; others seeded.
	if ms.BitmapPagesRead == 0 {
		t.Fatal("fallback did not walk bitmaps")
	}
	if s.Agg.groups[0].cache.Len() != s.Agg.groups[0].topo.NumAAs() {
		t.Fatal("corrupt group not fully rebuilt")
	}
	if s.Agg.groups[1].cache.Len() > 512 {
		t.Fatal("intact group not seeded")
	}
}

func TestOperationContinuesAfterSeededMount(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 4)
	s.Agg.Remount(true)
	// Writes proceed on the seed alone.
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	// Background fill then restores the full-cache invariants.
	inserted := s.Agg.CompleteBackgroundFill()
	if inserted == 0 {
		t.Fatal("background fill inserted nothing")
	}
	s.CP()
	checkConsistency(t, s)
}

func TestRemountWithoutTopAAThenChurn(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 5)
	s.Agg.Remount(false)
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	checkConsistency(t, s)
}

func TestMountScalesWithVolumeCountOnlyWithoutTopAA(t *testing.T) {
	// The Fig. 10 mechanism in miniature: TopAA reads grow with volume
	// count (cheap, fixed per volume), while the no-TopAA walk grows with
	// total volume *size*.
	build := func(nvols int, volBlocks uint64) *System {
		tun := DefaultTunables()
		tun.CPEveryOps = 1024
		var vols []VolSpec
		for i := 0; i < nvols; i++ {
			vols = append(vols, VolSpec{Name: string(rune('a' + i)), Blocks: volBlocks})
		}
		s := NewSystem(testSpecs(), vols, tun, 6)
		lun := s.Agg.Vols()[0].CreateLUN("l", 5000)
		for lba := uint64(0); lba < 5000; lba++ {
			s.Write(lun, lba, 1)
		}
		s.CP()
		return s
	}
	small := build(2, 4*aa.RAIDAgnosticBlocks)
	large := build(2, 32*aa.RAIDAgnosticBlocks)

	msSmallTop := small.Agg.Remount(true)
	msLargeTop := large.Agg.Remount(true)
	if msSmallTop.TopAABlockReads != msLargeTop.TopAABlockReads {
		t.Fatalf("TopAA reads scale with volume size: %d vs %d",
			msSmallTop.TopAABlockReads, msLargeTop.TopAABlockReads)
	}
	msSmallWalk := small.Agg.Remount(false)
	msLargeWalk := large.Agg.Remount(false)
	if msLargeWalk.BitmapPagesRead <= msSmallWalk.BitmapPagesRead {
		t.Fatalf("bitmap walk does not grow with volume size: %d vs %d",
			msSmallWalk.BitmapPagesRead, msLargeWalk.BitmapPagesRead)
	}
}

func TestRepairTopAARecoversFromCorruption(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 6)
	// Damage every metafile.
	for i := range s.Agg.groups {
		if err := s.Agg.store.Corrupt(topaaGroupKey(i), 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Agg.store.Corrupt("v", 1); err != nil {
		t.Fatal(err)
	}
	// Without repair, mounting falls back everywhere.
	ms := s.Agg.Remount(true)
	if ms.Fallbacks != len(s.Agg.groups)+1 {
		t.Fatalf("fallbacks = %d", ms.Fallbacks)
	}
	// Repair recomputes and rewrites everything from the bitmaps.
	repaired := s.Agg.RepairTopAA()
	if repaired != len(s.Agg.groups)+1 {
		t.Fatalf("repaired = %d", repaired)
	}
	ms = s.Agg.Remount(true)
	if ms.Fallbacks != 0 || ms.BitmapPagesRead != 0 {
		t.Fatalf("post-repair mount stats = %+v", ms)
	}
	// The system is fully operational afterwards.
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	s.Agg.CompleteBackgroundFill()
	s.CP()
	checkConsistency(t, s)
}

// Frees noted after the last CP (here a snapshot deletion) are exactly what
// the saved TopAA images lack: a remount that seeds from them must keep the
// pending deltas, and one that walks the bitmap must drop them, or the
// caches disagree with the bitmap.
func TestRemountWithUncommittedFreesScrubsClean(t *testing.T) {
	for _, useTopAA := range []bool{false, true} {
		for _, pipeline := range []bool{false, true} {
			for _, shards := range []int{0, 4} {
				tun := DefaultTunables()
				tun.Pipeline = pipeline
				tun.AllocShards = shards
				s := testSystem(t, tun)
				lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
				for lba := uint64(0); lba < 5000; lba++ {
					s.Write(lun, lba, 1)
				}
				s.CP()
				s.Drain()
				if _, err := s.CreateSnapshot(lun, "snap"); err != nil {
					t.Fatal(err)
				}
				for lba := uint64(0); lba < 5000; lba++ {
					s.Write(lun, lba, 1)
				}
				s.CP()
				s.Drain()
				if _, err := s.DeleteSnapshot(lun, "snap"); err != nil {
					t.Fatal(err)
				}
				s.Agg.Remount(useTopAA)
				s.Agg.CompleteBackgroundFill()
				if rep := s.Agg.Scrub(); !rep.Clean() {
					t.Errorf("topaa=%v pipeline=%v shards=%d: after remount: %s", useTopAA, pipeline, shards, rep)
				}
				s.CP()
				s.Drain()
				if rep := s.Agg.Scrub(); !rep.Clean() {
					t.Errorf("topaa=%v pipeline=%v shards=%d: after the next CP: %s", useTopAA, pipeline, shards, rep)
				}
			}
		}
	}
}
