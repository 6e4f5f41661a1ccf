package wafl

import (
	"errors"
	"fmt"
	"sort"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// ErrCPInProgress reports that a boundary-only operation (snapshot create/
// delete/restore, hole punch, tier-out) was attempted while dirty writes are
// pending or — under pipelined CPs — while a sealed generation is still in
// flight. Callers should CP() (and Drain(), when pipelining) and retry.
// Before pipelining these mid-CP states were programming errors and panicked;
// with overlapped CPs an in-flight generation is a normal steady state, so
// the condition is a typed, recoverable error.
var ErrCPInProgress = errors.New("wafl: operation requires a CP boundary")

// Snapshots. WAFL's copy-on-write design makes snapshot creation cheap — a
// snapshot is just a pinned copy of the block pointers (§1) — and snapshot
// deletion frees large batches of blocks at once, which is one of the
// internal activities that "further adds to the nonuniformity" of free
// space the AA caches exploit (§4.1.1).
//
// Reference counting: every written LUN block (a virtual+physical VBN pair)
// carries a count of referents — the active LUN image plus any snapshots.
// A COW overwrite or hole punch drops the active reference; the pair's
// storage is freed only when the last reference goes.

// refcounts lives in the FlexVol, indexed by virtual VBN (each pair is
// uniquely identified by its virtual address within the volume). It is a
// dense int32 array, paged per RAID-agnostic AA: a page is allocated on the
// first refNew into its AA, so a thin volume pays only for the AAs it has
// written. A zero entry means "not referenced"; live counts the non-zero
// entries (the number of referenced pairs).
type refcounts struct {
	pages [][]int32
	live  uint64
}

// rcPage is the refcount page size: one RAID-agnostic AA of virtual VBNs.
const rcPage = aa.RAIDAgnosticBlocks

func newRefcounts(blocks uint64) refcounts {
	return refcounts{pages: make([][]int32, (blocks+rcPage-1)/rcPage)}
}

// at returns the count of virt (0 if its page was never allocated).
func (r *refcounts) at(virt block.VBN) int32 {
	if pg := r.pages[virt/rcPage]; pg != nil {
		return pg[virt%rcPage]
	}
	return 0
}

// slot returns virt's entry, allocating its page if needed.
func (r *refcounts) slot(virt block.VBN) *int32 {
	pg := r.pages[virt/rcPage]
	if pg == nil {
		pg = make([]int32, rcPage)
		r.pages[virt/rcPage] = pg
	}
	return &pg[virt%rcPage]
}

// held returns virt's entry; referencing or dropping an unreferenced VBN
// (op) is a bookkeeping bug and panics.
func (r *refcounts) held(virt block.VBN, op string) *int32 {
	if pg := r.pages[virt/rcPage]; pg != nil && pg[virt%rcPage] != 0 {
		return &pg[virt%rcPage]
	}
	panic(fmt.Sprintf("wafl: %s of unknown virtual %v", op, virt))
}

// refNew registers a freshly allocated pair with one reference.
func (v *FlexVol) refNew(virt block.VBN) {
	n := v.rc.slot(virt)
	if *n != 0 {
		panic(fmt.Sprintf("wafl: virtual %v already referenced", virt))
	}
	*n = 1
	v.rc.live++
}

// ref adds a reference to an existing pair.
func (v *FlexVol) ref(virt block.VBN) { *v.rc.held(virt, "ref")++ }

// unref drops one reference; when the last goes, both VBNs are freed and
// the function reports true.
func (s *System) unref(v *FlexVol, p blockPtr) bool {
	n := v.rc.held(p.virt, "unref")
	if *n > 1 {
		*n--
		return false
	}
	*n = 0
	v.rc.live--
	v.space.free(p.virt)
	s.Agg.FreePhysical(p.phys)
	s.c.BlocksFreed++
	return true
}

// Snapshot is a point-in-time image of one LUN.
type Snapshot struct {
	Name   string
	blocks []blockPtr
}

// Blocks returns how many written blocks the snapshot references.
func (sn *Snapshot) Blocks() int {
	n := 0
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN {
			n++
		}
	}
	return n
}

// CreateSnapshot captures the LUN's current image under name. It must run
// at a CP boundary (in WAFL a snapshot is a CP that is preserved): with
// writes pending or a pipelined generation in flight it returns
// ErrCPInProgress. The operation copies only pointers; no data blocks move.
func (s *System) CreateSnapshot(l *LUN, name string) (*Snapshot, error) {
	if s.pendingBlocks > 0 || s.pipe.inFlight {
		return nil, ErrCPInProgress
	}
	if l.snaps == nil {
		l.snaps = make(map[string]*Snapshot)
	}
	if _, dup := l.snaps[name]; dup {
		panic(fmt.Sprintf("wafl: duplicate snapshot %q on LUN %q", name, l.Name))
	}
	sn := &Snapshot{Name: name, blocks: append([]blockPtr(nil), l.blocks...)}
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN {
			l.vol.ref(p.virt)
		}
	}
	l.snaps[name] = sn
	return sn, nil
}

// Snapshot returns the named snapshot, or nil.
func (l *LUN) Snapshot(name string) *Snapshot { return l.snaps[name] }

// SnapshotNames lists the LUN's snapshots in sorted order.
func (l *LUN) SnapshotNames() []string {
	out := make([]string, 0, len(l.snaps))
	for n := range l.snaps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DeleteSnapshot removes a snapshot, freeing every block whose last
// reference it held — the bulk-free behaviour whose batched AA score
// updates the caches absorb at the next CP. Returns the number of blocks
// actually freed. Must run at a CP boundary; returns ErrCPInProgress with
// writes pending or a pipelined generation in flight.
func (s *System) DeleteSnapshot(l *LUN, name string) (int, error) {
	if s.pendingBlocks > 0 || s.pipe.inFlight {
		return 0, ErrCPInProgress
	}
	sn, ok := l.snaps[name]
	if !ok {
		panic(fmt.Sprintf("wafl: no snapshot %q on LUN %q", name, l.Name))
	}
	freed := 0
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN && s.unref(l.vol, p) {
			freed++
		}
	}
	delete(l.snaps, name)
	return freed, nil
}

// RestoreSnapshot rolls the LUN's active image back to the snapshot
// (SnapRestore): the current image's references are dropped and the
// snapshot's pointers become the active ones. The snapshot itself remains.
// Must run at a CP boundary; returns ErrCPInProgress with writes pending or
// a pipelined generation in flight.
func (s *System) RestoreSnapshot(l *LUN, name string) error {
	if s.pendingBlocks > 0 || s.pipe.inFlight {
		return ErrCPInProgress
	}
	sn, ok := l.snaps[name]
	if !ok {
		panic(fmt.Sprintf("wafl: no snapshot %q on LUN %q", name, l.Name))
	}
	// Take the new references first so blocks shared between the current
	// image and the snapshot never transit through zero.
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN {
			l.vol.ref(p.virt)
		}
	}
	for _, p := range l.blocks {
		if p.virt != block.InvalidVBN {
			s.unref(l.vol, p)
		}
	}
	copy(l.blocks, sn.blocks)
	return nil
}

// CheckRefcounts verifies the volume-wide refcount invariant: every
// allocated virtual VBN is referenced by exactly rc holders among the
// active LUN images and snapshots, every reference points at an allocated
// pair, and live counts the referenced pairs. Tests call this after
// snapshot workloads.
func (v *FlexVol) CheckRefcounts() error {
	census := newRefcounts(v.Blocks())
	count := func(bps []blockPtr) {
		for _, p := range bps {
			if p.virt != block.InvalidVBN {
				n := census.slot(p.virt)
				if *n == 0 {
					census.live++
				}
				*n++
			}
		}
	}
	for _, l := range v.luns {
		count(l.blocks)
		for _, sn := range l.snaps {
			count(sn.blocks)
		}
	}
	for pi := range v.rc.pages {
		if v.rc.pages[pi] == nil && census.pages[pi] == nil {
			continue
		}
		for virt := block.VBN(pi * rcPage); virt < block.VBN((pi+1)*rcPage); virt++ {
			n, want := v.rc.at(virt), census.at(virt)
			if n != want {
				return fmt.Errorf("virtual %v: rc %d, census %d", virt, n, want)
			}
			if n != 0 && !v.bm.Test(virt) {
				return fmt.Errorf("virtual %v referenced but not allocated", virt)
			}
		}
	}
	// Every entry matches the census, so live must match its count too.
	if v.rc.live != census.live {
		return fmt.Errorf("refcount live %d, census %d referenced", v.rc.live, census.live)
	}
	// Blocks queued for delayed free are still allocated in the bitmap but
	// referenced by nobody.
	if census.live+uint64(v.PendingFrees()) != v.bm.Used() {
		return fmt.Errorf("census %d + pending %d blocks, bitmap used %d",
			census.live, v.PendingFrees(), v.bm.Used())
	}
	return nil
}
