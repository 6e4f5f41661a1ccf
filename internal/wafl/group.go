package wafl

import (
	"fmt"
	"math/rand"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/device"
	"waflfs/internal/heapcache"
	"waflfs/internal/obs"
	"waflfs/internal/obs/picks"
	"waflfs/internal/raid"
)

// Device abstracts the per-drive cost models in package device.
type Device interface {
	// WriteChain services one write I/O of n consecutive blocks at start.
	WriteChain(start, n uint64) time.Duration
	// Read services one read I/O of n consecutive blocks.
	Read(n uint64) time.Duration
}

// trimmer is implemented by devices that accept deallocations (SSDs).
type trimmer interface {
	Trim(start, n uint64)
}

// Group is the runtime state of one RAID group: geometry, AA topology, the
// RAID-aware AA cache, the device models, and the allocator cursor.
type Group struct {
	Index int
	Spec  GroupSpec

	geo  raid.Geometry
	topo *aa.Striped

	cache        *heapcache.Cache
	cacheEnabled bool
	seedOnly     bool // cache holds only a TopAA seed; background fill pending

	// Striped allocator hot path (AllocShards > 1, see allocctx.go): sh
	// stripes the heap into per-shard pick queues; as holds the shard
	// ledgers and the modeled busy vectors. sh is nil on the classic path.
	sh *heapcache.Sharded
	as *allocState

	devices []Device // data devices, index-aligned with geometry
	parity  Device   // one model standing in for the parity device(s)
	ssds    []*device.SSD
	azcs    bool

	// Allocation cursor: the AA currently being filled, stripe-major.
	curAA     aa.ID
	curValid  bool
	curStripe uint64
	curEnd    uint64
	curWrote  bool // at least one block assigned from the current AA

	// deltas accumulates per-AA free-count changes since the last CP
	// (allocations negative, frees positive).
	deltas map[aa.ID]int64
	// cpWrites collects the physical VBNs allocated since the last CP.
	cpWrites []block.VBN

	// Flush banks (see pipeline.go): at seal, deltas/cpWrites/pendingCS
	// swap with these, and the banks flush and fold when the sealed
	// generation commits — at the same boundary on the classic path, one
	// boundary later under Tunables.Pipeline. Empty between boundaries
	// unless a pipelined generation is in flight.
	flushDeltas map[aa.ID]int64
	flushWrites []block.VBN
	flushCS     []uint64

	raidStats *raid.Stats
	rng       *rand.Rand

	// pendingCS queues out-of-band AZCS checksum-block positions (disk
	// DBNs) accrued at AA switches; they are charged after the CP's data
	// chains so device write pointers see writes in issue order.
	pendingCS []uint64

	// Measurement counters.
	pickedScoreSum   float64 // sum of (score/BlocksPerAA) at AA pick time
	pickedCount      uint64
	cacheOps         uint64 // AA-cache maintenance operations
	azcsSeqWrites    uint64
	azcsRandomWrites uint64
	deviceBusy       time.Duration // busy time charged during CP flushes

	// Observability handles (nil-safe; set by Aggregate.registerGroupObs).
	st     *obs.SysTracer
	scored *obs.Counter

	// Allocation-decision provenance and watchdog hooks (nil when off;
	// set by Aggregate.registerGroupObs). cpNow points at the aggregate's
	// current CP ordinal so pick records carry it; wdCursor rotates the
	// watchdog's score-sample window across the group's AAs.
	pr       *picks.Ring
	cpNow    *uint64
	wd       *watchdogState
	wdCursor int
}

// buildGroup constructs the runtime for one spec at the given VBN offset.
func buildGroup(index int, spec GroupSpec, startVBN block.VBN, tun Tunables, rng *rand.Rand) *Group {
	geo := raid.Geometry{
		DataDevices:     spec.DataDevices,
		ParityDevices:   spec.ParityDevices,
		BlocksPerDevice: spec.BlocksPerDevice,
		StartVBN:        startVBN,
	}
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	stripes := spec.StripesPerAA
	if stripes == 0 {
		stripes = aa.StripesPerAA(aa.SizingParams{
			Media:            spec.Media,
			EraseBlockBlocks: spec.EraseBlockBlocks,
			ZoneBlocks:       spec.ZoneBlocks,
			AZCS:             spec.AZCS,
		})
	}
	if stripes > geo.Stripes() {
		stripes = geo.Stripes()
	}
	topo := aa.NewStriped(geo, stripes)

	g := &Group{
		Index:        index,
		Spec:         spec,
		geo:          geo,
		topo:         topo,
		cacheEnabled: tun.AggregateCacheEnabled,
		azcs:         spec.AZCS,
		deltas:       make(map[aa.ID]int64),
		flushDeltas:  make(map[aa.ID]int64),
		as:           newAllocState(tun),
		raidStats:    raid.NewStats(geo),
		rng:          rng,
	}
	g.buildDevices()
	if f := tun.Faults; f != nil && f.DeviceReadErrEvery > 0 {
		// Wrap every device model so each injects a recoverable media error
		// (plus its RAID-reconstruction penalty) on a per-device read
		// schedule — worker-count invariant because the counters are owned
		// by the device, not the caller.
		wrap := func(d Device) Device {
			inner, ok := d.(interface {
				WriteChain(start, n uint64) time.Duration
				Read(n uint64) time.Duration
				Stats() device.DiskStats
			})
			if !ok {
				return d
			}
			return &device.FaultyDisk{Inner: inner, Every: f.DeviceReadErrEvery, Penalty: f.DeviceReadPenalty}
		}
		for d := range g.devices {
			g.devices[d] = wrap(g.devices[d])
		}
		g.parity = wrap(g.parity)
	}

	// A fresh file system builds its cache from the (all-free) bitmap.
	scores := make([]uint64, topo.NumAAs())
	for id := range scores {
		scores[id] = aaBlockCount(topo, aa.ID(id))
	}
	g.cache = heapcache.NewFromScores(scores)
	g.resetShardCache()
	return g
}

// resetShardCache (re)builds the shard queues around the current cache
// object and drops all ledger state. Called wherever the cache is replaced
// wholesale (fresh build, remount, repair) — the Sharded wrapper holds a
// pointer to the shared heap and must never outlive it.
func (g *Group) resetShardCache() {
	g.as.clearLedgers()
	if g.as.sharded() && g.cacheEnabled {
		g.sh = heapcache.NewSharded(g.cache, g.as.shards, g.as.batch)
	} else {
		g.sh = nil
	}
}

// restageShards rebuilds the shard queues from the current shared heap
// WITHOUT touching ledger state — for passes that flushed the queues to
// operate on the complete heap (segment cleaning) while frees noted since
// the last CP are still pending in the ledgers.
func (g *Group) restageShards() {
	if g.as.sharded() && g.cacheEnabled {
		if g.sh != nil {
			// Relocation writes mid-pass may have re-staged entries into the
			// old wrapper; return them so the rebuild tracks every AA.
			g.sh.FlushAll()
		}
		g.sh = heapcache.NewSharded(g.cache, g.as.shards, g.as.batch)
	}
}

// pendingDelta is the total pending score delta for id: the shared map
// plus every shard ledger plus the sealed flush bank (the quantity the
// scrub invariant subtracts). Including the sealed bank keeps the scrub
// and watchdog invariants valid mid-pipeline.
func (g *Group) pendingDelta(id aa.ID) int64 {
	return g.as.pending(id, g.deltas) + g.flushDeltas[id]
}

func (g *Group) buildDevices() {
	spec := g.Spec
	devBlocks := spec.BlocksPerDevice
	if g.azcs {
		// With AZCS the drive stores interleaved checksum blocks; round the
		// on-disk span up to whole AZCS regions so the final region's
		// checksum block is addressable.
		lastDisk := device.DataToDiskDBN(devBlocks - 1)
		devBlocks = (lastDisk/block.AZCSRegionBlocks + 1) * block.AZCSRegionBlocks
	}
	mk := func() Device {
		switch spec.Media {
		case aa.MediaSSD:
			cfg := device.DefaultSSDConfig(devBlocks)
			if spec.EraseBlockBlocks > 0 {
				cfg.FTL.PagesPerEraseBlock = spec.EraseBlockBlocks
			}
			if spec.Overprovision > 0 {
				cfg.FTL.Overprovision = spec.Overprovision
			}
			ssd := device.NewSSD(cfg)
			g.ssds = append(g.ssds, ssd)
			return ssd
		case aa.MediaSMR:
			zone := spec.ZoneBlocks
			if zone == 0 {
				zone = 16384
			}
			return device.NewSMR(devBlocks, zone)
		default:
			return device.DefaultHDD()
		}
	}
	g.devices = make([]Device, spec.DataDevices)
	for d := range g.devices {
		g.devices[d] = mk()
	}
	g.parity = mk()
	if spec.Media == aa.MediaSSD {
		// The parity model was appended to ssds by mk; parity WA is not a
		// data-path metric, so drop it from the WA census.
		g.ssds = g.ssds[:len(g.ssds)-1]
	}
}

// Geometry returns the group's RAID geometry.
func (g *Group) Geometry() raid.Geometry { return g.geo }

// Topology returns the group's AA topology.
func (g *Group) Topology() *aa.Striped { return g.topo }

// Cache returns the RAID-aware AA cache.
func (g *Group) Cache() *heapcache.Cache { return g.cache }

// RAIDStats returns the cumulative tetris accounting.
func (g *Group) RAIDStats() *raid.Stats { return g.raidStats }

// Devices returns the data-device models (for demand measurement).
func (g *Group) Devices() []Device { return g.devices }

// WriteAmplification averages the FTL write amplification across the
// group's data SSDs; it returns 0 for non-SSD groups.
func (g *Group) WriteAmplification() float64 {
	if len(g.ssds) == 0 {
		return 0
	}
	var s float64
	for _, d := range g.ssds {
		s += d.WriteAmplification()
	}
	return s / float64(len(g.ssds))
}

// bestScore returns the best available AA score for eligibility decisions:
// the held AA's last known score, or the cache top. With the striped path
// active the best entry may sit in a shard queue rather than the shared
// heap, so the scan spans both.
func (g *Group) bestScore() (uint64, bool) {
	if g.sh != nil {
		if e, ok := g.sh.Best(); ok {
			return e.Score, true
		}
		return 0, false
	}
	if e, ok := g.cache.Best(); ok {
		return e.Score, true
	}
	return 0, false
}

// eligible reports whether the allocator should write to this group given
// the fragmentation-bias threshold (§3.3.1).
func (g *Group) eligible(minFraction float64) bool {
	if !g.cacheEnabled || minFraction <= 0 {
		return true
	}
	if g.curValid {
		return true // keep filling the AA we already committed to
	}
	s, ok := g.bestScore()
	if !ok {
		return false
	}
	return float64(s) >= minFraction*float64(g.topo.BlocksPerAA())
}

// pickAA selects the next AA to fill: the cache's best when enabled,
// uniformly random otherwise (the paper's baseline).
func (g *Group) pickAA(bm *bitmap.Bitmap) bool {
	if g.sh != nil {
		return g.pickAASharded(bm)
	}
	var id aa.ID
	var score uint64
	if g.cacheEnabled {
		e, ok := g.cache.PopBest()
		if !ok {
			g.st.Emit("alloc.phys", g.Index, "cache_empty", 0, 0)
			return false
		}
		g.cacheOps++
		g.as.picks++
		g.as.pickBusy[0] += g.as.opCost // shared critical section: one vector
		if e.Score == 0 {
			// Even the best AA has no free blocks: the group is full.
			g.cache.Insert(e.ID, 0)
			g.cacheOps++
			g.st.Emit("alloc.phys", g.Index, "cache_exhausted", 0, 0)
			return false
		}
		id, score = e.ID, e.Score
		g.st.Emit("alloc.phys", g.Index, "cache_hit", 0, int64(score))
		if g.wd != nil && g.wd.enabled {
			g.wd.pickCheckGroup(g, bm, id, score)
		}
		if g.pr != nil {
			runner := int64(-1)
			if e2, ok := g.cache.Best(); ok { // best remaining after the pop
				runner = int64(e2.Score)
			}
			g.pr.Record(*g.cpNow, uint32(id), int64(score), runner, g.cache.Len(), picks.HeapTop, 0)
		}
	} else {
		// Random selection; retry a bounded number of times to find an AA
		// with any free space, then fall back to a linear sweep.
		n := g.topo.NumAAs()
		found := false
		for try := 0; try < 16 && !found; try++ {
			id = aa.ID(g.rng.Intn(n))
			score = aa.Score(g.topo, bm, id)
			g.scored.Inc()
			found = score > 0
		}
		if !found {
			start := g.rng.Intn(n)
			for off := 0; off < n; off++ {
				id = aa.ID((start + off) % n)
				score = aa.Score(g.topo, bm, id)
				g.scored.Inc()
				if score > 0 {
					found = true
					break
				}
			}
		}
		if !found {
			return false
		}
		g.st.Emit("alloc.phys", g.Index, "random_pick", 0, int64(score))
		if g.pr != nil {
			g.pr.Record(*g.cpNow, uint32(id), int64(score), -1, 0, picks.BitmapFallback, 0)
		}
	}
	g.curAA = id
	g.curValid = true
	g.curWrote = false
	g.curStripe, g.curEnd = g.topo.StripeRange(id)
	g.pickedScoreSum += float64(score) / float64(aaBlockCount(g.topo, id))
	g.pickedCount++
	return true
}

// pickAASharded is the striped pick path: pop the fixed shard's queue
// front, staging the next batch ahead of exhaustion so refills hide behind
// ongoing picks. The shard assignment is seq%shards — worker-independent —
// and every queue/stage mutation happens in pick order, so the pick stream
// is bit-identical at any worker width.
func (g *Group) pickAASharded(bm *bitmap.Bitmap) bool {
	as := g.as
	shard := as.nextShard()
	reason := picks.ShardLocal
	e, ok := g.sh.Pop(shard)
	if !ok {
		// Stall: queue and standby batch are both dry. Refill synchronously
		// from the shared heap; this cost serializes (every worker would
		// contend on the shared structure), unlike pipelined staging.
		reason = picks.Refill
		as.stalls++
		n := g.sh.Stage(shard)
		g.cacheOps += uint64(n)
		as.stallBusy += time.Duration(n+1) * as.opCost
		if e, ok = g.sh.Pop(shard); !ok {
			// The shared heap is dry, but other shards may still hoard
			// free AAs (shards × batch can exceed the group's AA count).
			// Rebalance: return every shard's stock and restage this one.
			if g.sh.HeldCount() > 0 {
				n = g.sh.FlushAll() + g.sh.Stage(shard)
				g.cacheOps += uint64(n)
				as.stallBusy += time.Duration(n) * as.opCost
				e, ok = g.sh.Pop(shard)
			}
			if !ok {
				g.st.Emit("alloc.phys", g.Index, "cache_empty", 0, 0)
				return false
			}
		}
	}
	if e.Score == 0 {
		// The shard's front is empty — but that is only the shard-local
		// view. Return every shard's stock to the shared heap and restage,
		// so an AA whose score rose since staging — or a free AA hoarded by
		// another shard — is found before the group is declared full (the
		// classic path's cache_exhausted).
		g.cache.Insert(e.ID, 0)
		n := g.sh.FlushAll() + 1
		n += g.sh.Stage(shard)
		g.cacheOps += uint64(n)
		as.stallBusy += time.Duration(n) * as.opCost
		as.stalls++
		reason = picks.Refill
		if e, ok = g.sh.Pop(shard); !ok || e.Score == 0 {
			if ok {
				g.cache.Insert(e.ID, 0)
				g.cacheOps++
			}
			g.st.Emit("alloc.phys", g.Index, "cache_exhausted", 0, 0)
			return false
		}
	}
	id, score := e.ID, e.Score
	g.cacheOps++
	as.picks++
	if reason == picks.ShardLocal {
		as.localPicks++
	}
	as.pickBusy[shard] += as.opCost
	g.st.Emit("alloc.phys", g.Index, "shard_hit", 0, int64(score))
	if g.wd != nil && g.wd.enabled {
		g.wd.pickCheckGroup(g, bm, id, score)
	}
	if g.pr != nil {
		runner := int64(-1)
		if e2, ok := g.sh.Peek(shard); ok {
			runner = int64(e2.Score)
		} else if e2, ok := g.cache.Best(); ok {
			runner = int64(e2.Score)
		}
		g.pr.Record(*g.cpNow, uint32(id), int64(score), runner, g.sh.Len(shard)+g.cache.Len(), reason, 0)
	}
	// Pipelined refill: the shard is running low, so stage the next batch
	// now — the eventual drain swaps a ready batch in instead of stalling.
	if g.sh.Low(shard) {
		n := g.sh.Stage(shard)
		g.cacheOps += uint64(n)
		as.staged += uint64(n)
		as.refillBusy += time.Duration(n) * as.opCost
	}
	as.curShard = shard
	g.curAA = id
	g.curValid = true
	g.curWrote = false
	g.curStripe, g.curEnd = g.topo.StripeRange(id)
	g.pickedScoreSum += float64(score) / float64(aaBlockCount(g.topo, id))
	g.pickedCount++
	return true
}

// aaBlockCount returns the capacity of AA id, accounting for a truncated
// final AA.
func aaBlockCount(t *aa.Striped, id aa.ID) uint64 { return aa.Capacity(t, id) }

// finishAA returns the drained AA to the cache with its current score.
func (g *Group) finishAA(bm *bitmap.Bitmap) {
	if !g.curValid {
		return
	}
	if g.azcs && g.curWrote {
		g.queueAZCSBoundaries(g.curAA)
	}
	if g.cacheEnabled {
		g.cache.Insert(g.curAA, aa.Score(g.topo, bm, g.curAA))
		g.scored.Inc()
		g.cacheOps++
		g.as.clearPending(g.curAA, g.deltas) // the fresh score already reflects them
		delete(g.flushDeltas, g.curAA)       // ditto for a sealed delta mid-pipeline
	}
	g.curValid = false
}

// allocateTetris assigns up to max free physical VBNs from the next tetris
// of the current AA, stripe-major (stripe by stripe across devices, which
// yields full stripes and per-device chains). It returns the VBNs assigned;
// an empty result with more==false means the group is exhausted for now.
func (g *Group) allocateTetris(bm *bitmap.Bitmap, max int) (vbns []block.VBN, more bool) {
	if max <= 0 {
		return nil, true
	}
	for !g.curValid {
		if !g.pickAA(bm) {
			return nil, false
		}
	}
	// One tetris: up to StripesPerTetris stripes from the cursor.
	end := g.curStripe + block.StripesPerTetris
	if end > g.curEnd {
		end = g.curEnd
	}
	for s := g.curStripe; s < end && len(vbns) < max; s++ {
		for d := 0; d < g.geo.DataDevices; d++ {
			if len(vbns) >= max {
				// Mid-stripe stop: resume at this stripe next call.
				end = s
				break
			}
			v := g.geo.VBNOf(d, s)
			if bm.Set(v) {
				vbns = append(vbns, v)
				g.as.noteAlloc(g.curAA, g.deltas)
			}
		}
	}
	g.curStripe = end
	if len(vbns) > 0 {
		g.curWrote = true
	}
	if g.curStripe >= g.curEnd {
		g.finishAA(bm)
	}
	g.cpWrites = append(g.cpWrites, vbns...)
	return vbns, true
}

// free returns a physical VBN in this group to the free pool.
func (g *Group) free(bm *bitmap.Bitmap, v block.VBN, trim bool) {
	if !bm.Clear(v) {
		panic(fmt.Sprintf("wafl: double free of physical %v", v))
	}
	g.as.noteFree(g.topo.AAOf(v), g.deltas)
	if trim {
		d, dbn := g.geo.Locate(v)
		if g.azcs {
			dbn = device.DataToDiskDBN(dbn)
		}
		if tr, ok := g.devices[d].(trimmer); ok {
			tr.Trim(dbn, 1)
		}
	}
}

// sealCP closes the open generation: shard ledgers fold into the shared
// delta map (shard-index order, IDs sorted within each shard, so the merged
// totals are identical at any worker width), then the delta map, the write
// set, and the queued AZCS checksum positions swap places with the flush
// banks. The banks are empty here — the previous generation's flush drained
// them — so the open generation keeps accumulating into their storage.
func (g *Group) sealCP() {
	g.as.fold(g.deltas)
	g.deltas, g.flushDeltas = g.flushDeltas, g.deltas
	g.cpWrites, g.flushWrites = g.flushWrites, g.cpWrites
	g.pendingCS, g.flushCS = g.flushCS, g.pendingCS
}

// flushSealedCP classifies the sealed generation's writes into tetrises,
// charges the device models (data chains first, then any queued
// out-of-band AZCS checksum writes), and returns the time the flush kept
// the group's devices busy.
func (g *Group) flushSealedCP() time.Duration {
	if len(g.flushWrites) == 0 && len(g.flushCS) == 0 {
		return 0
	}
	var busy time.Duration
	tetrises := raid.BuildTetrises(g.geo, g.flushWrites)
	g.flushWrites = g.flushWrites[:0]
	for i := range tetrises {
		t := &tetrises[i]
		g.raidStats.Add(t)
		for _, c := range t.Chains {
			busy += g.chargeChain(c)
		}
		// Parity devices rewrite one block per touched stripe; for
		// AA-directed writes these are contiguous runs.
		if g.geo.ParityDevices > 0 && t.StripesTouched > 0 {
			busy += g.parity.WriteChain(t.Tetris*block.StripesPerTetris, uint64(t.ParityWriteBlocks))
			if t.ParityReadBlocks > 0 {
				busy += g.parity.Read(uint64(t.ParityReadBlocks))
			}
		}
	}
	for _, cs := range g.flushCS {
		for d := range g.devices {
			g.azcsRandomWrites++
			busy += g.devices[d].WriteChain(cs, 1)
		}
	}
	g.flushCS = g.flushCS[:0]
	g.deviceBusy += busy
	return busy
}

// chargeChain costs one data-device write chain. Under AZCS the chain is
// mapped to its on-disk span, which naturally includes the interior
// checksum blocks: they are written as part of the sequential sweep
// (§3.2.4). Partial regions at the *ends* of the chain are not charged
// here — within an AA the next chain continues where this one stopped, so
// the straddled region's checksum block still goes out sequentially once
// the region completes. The nonsequential checksum writes the paper warns
// about arise at AA boundaries and are charged by chargeAZCSBoundaries.
func (g *Group) chargeChain(c raid.Chain) time.Duration {
	dev := g.devices[c.Device]
	if !g.azcs {
		return dev.WriteChain(c.Start, c.Len)
	}
	diskStart := device.DataToDiskDBN(c.Start)
	diskEnd := device.DataToDiskDBN(c.Start + c.Len - 1)
	diskLen := diskEnd - diskStart + 1
	g.azcsSeqWrites += diskLen - c.Len // interior checksum blocks swept
	return dev.WriteChain(diskStart, diskLen)
}

// queueAZCSBoundaries records the out-of-band checksum-block updates an AA
// switch causes when the AA's on-disk span does not start and end on AZCS
// region boundaries (§3.2.4, Fig. 4 B vs C): the straddled regions' data is
// split across AAs written at different times, so their shared checksum
// block must be updated with a separate random write. The writes are issued
// by flushSealedCP after the CP's data chains.
func (g *Group) queueAZCSBoundaries(id aa.ID) {
	from, to := g.topo.StripeRange(id)
	if to == from {
		return
	}
	diskStart := device.DataToDiskDBN(from)
	diskEnd := device.DataToDiskDBN(to-1) + 1
	if diskStart%block.AZCSRegionBlocks != 0 {
		g.pendingCS = append(g.pendingCS,
			diskStart/block.AZCSRegionBlocks*block.AZCSRegionBlocks+block.AZCSRegionDataBlocks)
	}
	if diskEnd%block.AZCSRegionBlocks != 0 {
		g.pendingCS = append(g.pendingCS,
			diskEnd/block.AZCSRegionBlocks*block.AZCSRegionBlocks+block.AZCSRegionDataBlocks)
	}
}

// applyFlushDeltas folds the sealed generation's delta bank into the AA
// cache at its commit (§3.3), in AA order: the heap breaks score ties by
// insertion sequence, so sorted updates keep pick order identical run to
// run. Deltas the fold cannot apply yet — the allocator's in-flight AA, or
// an AA a seed-only cache does not track — merge back into the open map,
// where finishAA or the background fill settles them.
func (g *Group) applyFlushDeltas() {
	if !g.cacheEnabled {
		clear(g.flushDeltas)
		return
	}
	var folds int64
	for _, id := range sortedIDs(g.flushDeltas) {
		d := g.flushDeltas[id]
		delete(g.flushDeltas, id)
		if (g.curValid && id == g.curAA) || !g.cache.Tracked(id) {
			g.deltas[id] += d
			continue
		}
		s := int64(g.cache.Score(id)) + d
		if s < 0 {
			s = 0
		}
		g.cache.Update(id, uint64(s))
		g.cacheOps++
		folds++
	}
	g.st.Emit("cp.fold.phys", g.Index, "heap_updates", 0, folds)
}

// GroupMetrics is a snapshot of the measurement counters.
type GroupMetrics struct {
	PickedScoreFraction float64 // mean free fraction of AAs at pick time
	CacheOps            uint64
	AZCSSequential      uint64
	AZCSRandom          uint64
	DeviceBusy          time.Duration
	WriteAmplification  float64
}

// Metrics returns the group's measurement counters.
func (g *Group) Metrics() GroupMetrics {
	m := GroupMetrics{
		CacheOps:           g.cacheOps,
		AZCSSequential:     g.azcsSeqWrites,
		AZCSRandom:         g.azcsRandomWrites,
		DeviceBusy:         g.deviceBusy,
		WriteAmplification: g.WriteAmplification(),
	}
	if g.pickedCount > 0 {
		m.PickedScoreFraction = g.pickedScoreSum / float64(g.pickedCount)
	}
	return m
}

// ResetMetrics zeroes the measurement counters (used between the aging and
// measurement phases of an experiment).
func (g *Group) ResetMetrics() {
	g.pickedScoreSum, g.pickedCount = 0, 0
	g.cacheOps = 0
	g.azcsSeqWrites, g.azcsRandomWrites = 0, 0
	g.deviceBusy = 0
	g.as.resetCounters()
}

// FTLTotals sums FTL accounting across the group's SSD data devices.
func (g *Group) FTLTotals() device.FTLStats {
	var t device.FTLStats
	for _, d := range g.ssds {
		st := d.FTL.Stats()
		t.HostWrites += st.HostWrites
		t.NANDWrites += st.NANDWrites
		t.Relocated += st.Relocated
		t.Erases += st.Erases
		t.Trims += st.Trims
	}
	return t
}
