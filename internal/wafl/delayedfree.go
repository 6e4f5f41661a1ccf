package wafl

import (
	"fmt"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/hbps"
)

// Delayed frees. Freeing a block is not just a bitmap update: the metafile
// page must be read, modified, and written back, so WAFL batches frees and
// processes them sorted by location [17, 18]. The paper notes (§3.3.2) that
// the HBPS data structure "is used to track delayed-free scores": each AA's
// score is its count of pending frees, and the reclamation scan processes
// the AAs with the most pending frees first — the most metafile-efficient
// order, since all frees within an AA share one bitmap-metafile block.
//
// When Tunables.DelayedVirtFrees is enabled, virtual-VBN frees are queued
// per AA instead of applied immediately; each CP reclaims up to
// DelayedFreeBudgetPerCP blocks in HBPS (most-pending-first) order. Queued
// blocks stay allocated in the bitmap, so the allocator never hands them
// out before the reclaim applies.

// delayedFrees is the per-space queue plus the HBPS tracking its scores.
type delayedFrees struct {
	pending map[aa.ID][]block.VBN
	count   int
	cache   *hbps.HBPS
}

func newDelayedFrees() *delayedFrees {
	return &delayedFrees{
		pending: make(map[aa.ID][]block.VBN),
		cache:   hbps.New(hbps.DefaultConfig()),
	}
}

// add queues one free and bumps the AA's delayed-free score.
func (d *delayedFrees) add(id aa.ID, v block.VBN) {
	old := len(d.pending[id])
	d.pending[id] = append(d.pending[id], v)
	d.count++
	if old == 0 {
		d.cache.Track(id, 1)
	} else {
		d.cache.Update(id, uint32(old), uint32(old+1))
	}
}

// pop removes and returns the AA with the most pending frees (within the
// HBPS error margin) and its queued blocks.
func (d *delayedFrees) pop() (aa.ID, []block.VBN, bool) {
	for {
		id, ok := d.cache.PopBest()
		if !ok {
			if d.count > 0 {
				// The list ran dry while counts remain: replenish from the
				// authoritative queue (the background scan of §3.3.2).
				// Yield in AA order: the HBPS breaks score ties by
				// insertion sequence, so map order would leak run-to-run
				// nondeterminism into the reclamation order.
				d.cache.Replenish(func(yield func(aa.ID, uint32)) {
					for _, id := range sortedIDs(d.pending) {
						yield(id, uint32(len(d.pending[id])))
					}
				})
				continue
			}
			return 0, nil, false
		}
		vs := d.pending[id]
		if len(vs) == 0 {
			// Stale list entry (shouldn't happen, but stay robust).
			continue
		}
		delete(d.pending, id)
		d.count -= len(vs)
		d.cache.Untrack(id, uint32(len(vs)))
		return id, vs, true
	}
}

// absorb moves every queued free from o into d, in AA order so HBPS
// insertion sequence — and hence reclamation order — stays deterministic.
// Used at pipelined generation handoff: the sealed queue absorbs whatever
// the previous sealed generation's budget left behind (the carryover), and
// scores stay HBPS-consistent because each AA updates by its whole bulk.
func (d *delayedFrees) absorb(o *delayedFrees) {
	for _, id := range sortedIDs(o.pending) {
		vs := o.pending[id]
		old := len(d.pending[id])
		d.pending[id] = append(d.pending[id], vs...)
		d.count += len(vs)
		if old == 0 {
			d.cache.Track(id, uint32(len(vs)))
		} else {
			d.cache.Update(id, uint32(old), uint32(old+len(vs)))
		}
		delete(o.pending, id)
		o.cache.Untrack(id, uint32(len(vs)))
	}
	o.count = 0
}

// PendingFrees returns the number of queued (not yet applied) virtual-VBN
// frees in the volume, across both the open and (pipelined) sealed
// generations.
func (v *FlexVol) PendingFrees() int {
	n := 0
	if v.space.delayed != nil {
		n += v.space.delayed.count
	}
	if v.space.delayedSealed != nil {
		n += v.space.delayedSealed.count
	}
	return n
}

// reclaimFrees applies queued frees from q, best-AA-first, until the budget
// is exhausted (budget <= 0 means unlimited). Whole AAs are processed at a
// time; it returns blocks freed and AAs processed. The score drops are
// credited to the sealed flushDeltas bank — the frees belong to the
// committing generation — so its cache fold settles them with the rest of
// the generation. Whatever the budget leaves behind stays queued for a
// later CP.
func (s *agnosticSpace) reclaimFrees(q *delayedFrees, budget int) (freed, aas int) {
	if q == nil {
		return 0, 0
	}
	for q.count > 0 && (budget <= 0 || freed < budget) {
		id, vs, ok := q.pop()
		if !ok {
			break
		}
		for _, v := range vs {
			if !s.bm.Clear(v) {
				panic(fmt.Sprintf("wafl: delayed free of unallocated %v in %s", v, s.name))
			}
			s.flushDeltas[id]++
			freed++
		}
		aas++
	}
	return freed, aas
}
