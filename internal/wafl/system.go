package wafl

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/device"
	"waflfs/internal/faultinject"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/parallel"
)

// System is the client-facing facade: it accepts LUN reads and writes,
// buffers modifications, and flushes them in consistency points (§2.1:
// "WAFL collects the results of thousands of such modifying operations and
// efficiently flushes the changes to persistent storage"). It also owns the
// CPU cost accounting the experiments measure.
type System struct {
	Agg *Aggregate
	tun Tunables

	// pending lists the LUNs with dirty blocks in the current CP, in first-
	// write order; each LUN holds its coalesced dirty set (LUN.dirty).
	pending []*LUN
	// pendingBlocks counts dirty (lun, lba) pairs across the buffer.
	pendingBlocks int
	opsSinceCP    int
	// lbas is the CP's LBA scratch buffer, reused across LUNs and CPs.
	lbas []uint64

	c Counters
	// cpWall accumulates the modeled flush wall-clock (CPStats.FlushWall)
	// across CPs. Kept out of Counters: it is the one quantity that is
	// *supposed* to shrink with Tunables.Workers, while every Counters field
	// stays worker-count invariant. Under Tunables.Pipeline each boundary
	// contributes max(alloc wall, flush wall) instead of the flush wall
	// alone (see pipeline.go).
	cpWall time.Duration
	// pipe is the CP generation state (see pipeline.go). Its cp.pipeline.*
	// accumulators stay zero on the classic path.
	pipe cpPipeline
	// obsMark is the (DeviceBusy + CPUTime) total already folded into the
	// tracer's modeled clock; both terms are worker-count invariant, so
	// trace timestamps are too.
	obsMark time.Duration
	// act is the closed-loop controller's knob surface (see actuator.go).
	act sysActuator
}

// deviceStatser is satisfied by all concrete device models.
type deviceStatser interface{ Stats() device.DiskStats }

// Counters are the cumulative measurement counters; experiments snapshot
// them before and after a run and subtract.
type Counters struct {
	Ops    uint64 // all client operations
	ModOps uint64 // modifying operations
	CPs    uint64

	CPUTime       time.Duration // WAFL code-path CPU (base + metafile + cache)
	CacheCPUTime  time.Duration // the cache-maintenance share of CPUTime
	MetafilePages uint64        // bitmap-metafile pages written back
	TopAABlocks   uint64        // TopAA metafile blocks written
	DeviceBusy    time.Duration // total device time (writes, parity, reads)
	BlocksWritten uint64        // physical blocks allocated and flushed
	BlocksFreed   uint64
}

// Sub returns c - o field-wise.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Ops:           c.Ops - o.Ops,
		ModOps:        c.ModOps - o.ModOps,
		CPs:           c.CPs - o.CPs,
		CPUTime:       c.CPUTime - o.CPUTime,
		CacheCPUTime:  c.CacheCPUTime - o.CacheCPUTime,
		MetafilePages: c.MetafilePages - o.MetafilePages,
		TopAABlocks:   c.TopAABlocks - o.TopAABlocks,
		DeviceBusy:    c.DeviceBusy - o.DeviceBusy,
		BlocksWritten: c.BlocksWritten - o.BlocksWritten,
		BlocksFreed:   c.BlocksFreed - o.BlocksFreed,
	}
}

// CPUPerOp returns the mean WAFL code-path cost per operation.
func (c Counters) CPUPerOp() time.Duration {
	if c.Ops == 0 {
		return 0
	}
	return c.CPUTime / time.Duration(c.Ops)
}

// NewSystem builds a System over a fresh aggregate.
func NewSystem(specs []GroupSpec, vols []VolSpec, tun Tunables, seed int64) *System {
	ag := NewAggregate(specs, tun, seed)
	for _, vs := range vols {
		ag.AddVolume(vs)
	}
	s := &System{Agg: ag, tun: ag.tun}
	s.act.s = s
	s.registerSystemObs()
	if o := &ag.obsOpts; o.Control != nil && o.TSDB != nil {
		// The closed-loop controller needs the System's knob surface, so it
		// arms here rather than in initObs; the control.* counter views
		// registered there read through ag.ctl nil-safely either way.
		ag.ctl = o.Control.Engine(o.Name, o.TSDB, &s.act)
		if o.OpTrace != nil {
			// Actuation records link to a representative sampled trace from
			// the triggering signal's volume.
			ag.ctl.SetExemplarSource(o.OpTrace)
		}
	}
	return s
}

// Counters returns the cumulative counters.
func (s *System) Counters() Counters { return s.c }

// Write records a client write of nblocks logical blocks of l starting at
// lba. The blocks become dirty in the current CP; allocation happens when
// the CP commits, as in WAFL. Overwrites of the same block within one CP
// coalesce.
func (s *System) Write(l *LUN, lba uint64, nblocks int) {
	if lba+uint64(nblocks) > l.Blocks() {
		panic(fmt.Sprintf("wafl: write [%d,%d) beyond LUN %q size %d", lba, lba+uint64(nblocks), l.Name, l.Blocks()))
	}
	if l.dirtyN == 0 && nblocks > 0 {
		s.pending = append(s.pending, l)
	}
	s.pendingBlocks += l.markDirty(lba, nblocks)
	s.c.Ops++
	s.c.ModOps++
	s.c.CPUTime += s.tun.CPUBasePerOp
	s.opsSinceCP++
	if s.opsSinceCP >= s.tun.CPEveryOps {
		s.CP()
	}
}

// Read services a client read of nblocks logical blocks, charging the
// owning devices. Logically consecutive blocks whose physical VBNs are also
// consecutive coalesce into one device I/O — the read-side payoff of long
// write chains ("writing logically sequential blocks of the file system to
// consecutive blocks of a storage device ... improves subsequent sequential
// read performance because the blocks can be read with a single I/O",
// §2.4). Unwritten blocks read as zeroes and touch no device.
func (s *System) Read(l *LUN, lba uint64, nblocks int) {
	if lba+uint64(nblocks) > l.Blocks() {
		panic(fmt.Sprintf("wafl: read [%d,%d) beyond LUN %q size %d", lba, lba+uint64(nblocks), l.Name, l.Blocks()))
	}
	s.c.Ops++
	s.c.CPUTime += s.tun.CPUBasePerOp
	busyBefore := s.c.DeviceBusy
	// Op tracing: every read draws its deterministic per-volume sequence
	// number (nil-safe no-op when tracing is off). Device-leaf durations are
	// collected only when tracing is armed — pure observation, no modeled
	// cost.
	sp := l.vol.space
	tid, seq, sampled := sp.tr.Begin(optrace.KindRead)
	var leafBusy map[string]time.Duration
	if sp.tr != nil {
		leafBusy = make(map[string]time.Duration)
	}
	// Gather the op's physical blocks and coalesce per device, exactly as a
	// RAID read engine does: striped sequential data becomes one contiguous
	// DBN chain per device.
	var poolRun []block.VBN
	perDev := make(map[devKey][]uint64)
	for i := 0; i < nblocks; i++ {
		p := l.Phys(lba + uint64(i))
		if p == block.InvalidVBN {
			continue
		}
		if s.Agg.pool != nil && s.Agg.pool.Contains(p) {
			poolRun = append(poolRun, p)
			continue
		}
		g := s.Agg.groupOf(p)
		d, dbn := g.geo.Locate(p)
		perDev[devKey{g, d}] = append(perDev[devKey{g, d}], dbn)
	}
	// Pool blocks: one range GET per contiguous VBN run.
	slices.Sort(poolRun)
	for i := 0; i < len(poolRun); {
		j := i + 1
		for j < len(poolRun) && poolRun[j] == poolRun[j-1]+1 {
			j++
		}
		d := s.Agg.pool.read(uint64(j - i))
		s.c.DeviceBusy += d
		if leafBusy != nil {
			leafBusy["pool"] += d
		}
		i = j
	}
	for key, dbns := range perDev {
		slices.Sort(dbns)
		for i := 0; i < len(dbns); {
			j := i + 1
			for j < len(dbns) && dbns[j] == dbns[j-1]+1 {
				j++
			}
			start, n := dbns[i], uint64(j-i)
			var d time.Duration
			if key.g.azcs {
				diskStart := device.DataToDiskDBN(start)
				diskLen := device.DataToDiskDBN(start+n-1) - diskStart + 1
				d = key.g.devices[key.d].Read(diskLen)
			} else {
				d = key.g.devices[key.d].Read(n)
			}
			s.c.DeviceBusy += d
			if leafBusy != nil {
				leafBusy[fmt.Sprintf("rg%d.dev%d", key.g.Index, key.d)] += d
			}
			i = j
		}
	}
	// Latency SLI: a read op's modeled latency is its base CPU charge plus
	// the device time it just accrued — both worker-invariant. The same two
	// quantities feed the attribution accumulators, so per-stage attributed
	// time reconciles with the histogram total exactly.
	delta := s.c.DeviceBusy - busyBefore
	lat := uint64(s.tun.CPUBasePerOp + delta)
	sp.lat.Observe(lat)
	sp.attr[optrace.StageBase] += uint64(s.tun.CPUBasePerOp)
	sp.attr[optrace.StageDevice] += uint64(delta)
	if rec, slow := sp.tr.Decide(sampled, lat); rec {
		// perDev map iteration above is order-free (per-device totals are
		// independent); the trace's leaf spans sort by label so the recorded
		// tree is deterministic.
		labels := make([]string, 0, len(leafBusy))
		for lb := range leafBusy {
			labels = append(labels, lb)
		}
		sort.Strings(labels)
		leaves := make([]optrace.Span, 0, len(labels))
		for _, lb := range labels {
			leaves = append(leaves, optrace.Span{Name: lb, DurNS: uint64(leafBusy[lb])})
		}
		sp.tr.Add(optrace.Trace{
			ID: tid, Kind: optrace.KindRead.String(), Seq: seq, CP: s.c.CPs,
			AtNS: int64(s.c.DeviceBusy + s.c.CPUTime), LatNS: lat, Slow: slow,
			Spans: []optrace.Span{
				{Name: optrace.StageBase.String(), DurNS: uint64(s.tun.CPUBasePerOp)},
				{Name: optrace.StageDevice.String(), DurNS: uint64(delta), Children: leaves},
			},
		})
	}
}

// devKey identifies one data device for read coalescing.
type devKey struct {
	g *Group
	d int
}

// CP commits the current consistency point: dirty blocks get their dual
// VBNs (virtual from each volume's HBPS-guided allocator, physical from the
// tetris round-robin over RAID groups), previous block versions are freed
// (COW), tetrises are flushed, caches updated, metafiles written back.
//
// Every boundary runs the same stages (see pipeline.go): allocate the
// pending writes into the open generation, seal it, and commit a sealed
// generation. The classic CP commits the generation it just sealed, so
// seal and flush fall at the same boundary. Under Tunables.Pipeline the
// boundary commits the generation sealed one boundary earlier, overlapping
// its flush with this boundary's allocation; CP then returns that
// generation's CPStats (zero at the first boundary, when nothing was in
// flight).
func (s *System) CP() CPStats {
	committed := s.pipe.inFlight
	s.Agg.cpOrd = s.c.CPs + 1 // provenance records carry the CP being built
	if committed {
		s.Agg.cpOrd++ // the in-flight generation commits first
	}
	s.Agg.st.BeginCP()
	s.Agg.faults.BeginCP()
	if committed {
		s.Agg.faults.EnterPhase(faultinject.PhaseOverlapAlloc)
	} else {
		s.Agg.faults.EnterPhase(faultinject.PhaseAlloc)
	}

	// Phase 1: write allocation + COW frees into the open generation. Its
	// CPU is charged now (worker-invariant) and carried in the generation,
	// so the commit-time latency SLI covers the whole generation cost.
	cacheOpsBefore := s.cacheOps()
	scanBefore := s.virtScanBlocks()
	volBlocks, totalBlocks, cands := s.allocPending()
	gen := pipeGen{
		volBlocks: volBlocks, totalBlocks: totalBlocks, cands: cands,
		allocScan:  time.Duration(s.virtScanBlocks()-scanBefore) * s.tun.CPUPerVirtAllocScan,
		allocCache: time.Duration(s.cacheOps()-cacheOpsBefore) * s.tun.CPUPerCacheOp,
	}
	s.c.CPUTime += gen.allocScan + gen.allocCache
	s.c.CacheCPUTime += gen.allocCache

	if !s.tun.Pipeline {
		// Phase 2: seal the generation and commit it at once — delayed-free
		// reclaim, flush, cache fold, metafile write-back.
		s.sealGeneration(gen)
		st := s.flushGeneration(faultinject.PhaseDelayedFree)
		s.cpWall += st.FlushWall
		s.cpTail()
		return st
	}

	// Pipelined: the modeled alloc wall fans each volume's allocation work
	// (its blocks at the base per-op cost) out over the work pool, the way
	// the flush fans out over groups. The in-flight generation commits
	// while (logically) that allocation runs, and the boundary's wall is
	// max(alloc, flush), not their sum.
	volBusy := make([]time.Duration, 0, len(s.Agg.vols))
	for _, v := range s.Agg.vols {
		if n := volBlocks[v]; n > 0 {
			volBusy = append(volBusy, time.Duration(n)*s.tun.CPUBasePerOp)
		}
	}
	allocWall := parallel.Makespan(volBusy, s.Agg.workers())
	var st CPStats
	if committed {
		st = s.flushGeneration(faultinject.PhaseOverlapFlush)
	}
	s.sealGeneration(gen)
	s.pipe.generations++
	s.addWalls(allocWall, st.FlushWall)
	if committed {
		s.cpTail()
	}
	return st
}

// writeCand is a write-trace candidate. The blocks a volume commits in one
// CP share one modeled latency (the write-side SLI), so one candidate per
// (volume, CP) stands for the whole batch; it carries the allocator's
// activity counters at the batch's start for the trace's alloc span.
type writeCand struct {
	id, seq      uint64
	sampled      bool
	stalls0      uint64
	replenishes0 uint64
	stallBusy0   time.Duration
	refillBusy0  time.Duration
}

// allocPending is phase 1 of every CP boundary: each dirty LUN's blocks get
// their dual VBNs (virtual from the volume's HBPS-guided allocator, physical
// from the tetris round-robin) and the previous versions are freed (COW). It
// returns the blocks committed per volume, their total, and the volumes'
// write-trace candidates.
//
// LUNs are taken in (volume, LUN) name order and each LUN's blocks in LBA
// order, so VBN assignment does not depend on the order writes were issued.
func (s *System) allocPending() (volBlocks map[*FlexVol]uint64, totalBlocks uint64, cands map[*FlexVol]*writeCand) {
	slices.SortFunc(s.pending, func(a, b *LUN) int {
		return cmp.Or(cmp.Compare(a.vol.Name, b.vol.Name), cmp.Compare(a.Name, b.Name))
	})
	volBlocks = make(map[*FlexVol]uint64, len(s.Agg.vols))
	cands = make(map[*FlexVol]*writeCand)
	for _, l := range s.pending {
		n := l.dirtyN
		vol := l.vol
		// Begin draws the volume's deterministic write sequence number
		// before its first allocation; while the volume allocates, the
		// sampled trace ID rides along in curTID so its pick-provenance
		// records cross-reference the trace.
		if sp := vol.space; sp.tr != nil {
			if _, ok := cands[vol]; !ok {
				id, seq, smp := sp.tr.Begin(optrace.KindWrite)
				cands[vol] = &writeCand{
					id: id, seq: seq, sampled: smp,
					stalls0: sp.as.stalls, replenishes0: sp.replenishes,
					stallBusy0: sp.as.stallBusy, refillBusy0: sp.as.refillBusy,
				}
				if smp {
					sp.curTID = id
				}
			}
		}
		volBlocks[vol] += uint64(n)
		totalBlocks += uint64(n)
		virt := vol.space.allocate(n)
		var phys []block.VBN
		if s.tun.FlashPool {
			phys = s.Agg.AllocatePhysicalPreferring(aa.MediaSSD, n)
		} else {
			phys = s.Agg.AllocatePhysical(n)
		}
		if len(virt) < n {
			panic(fmt.Sprintf("wafl: volume %q out of virtual space", vol.Name))
		}
		if len(phys) < n {
			panic("wafl: aggregate out of physical space")
		}
		s.lbas = l.takeDirty(s.lbas[:0])
		for i, lba := range s.lbas {
			vol.refNew(virt[i])
			old, wasWritten := l.install(lba, blockPtr{virt: virt[i], phys: phys[i]})
			if wasWritten {
				// COW: drop the active image's reference; the old pair is
				// freed unless a snapshot still holds it.
				s.unref(vol, old)
			}
		}
		s.c.BlocksWritten += uint64(n)
		s.Agg.st.Emit("cp.alloc", vol.space.shard, l.Name, 0, int64(n))
	}
	s.pending = s.pending[:0]
	s.pendingBlocks = 0
	s.opsSinceCP = 0
	for vol := range cands {
		vol.space.curTID = 0
	}
	return volBlocks, totalBlocks, cands
}

// cpTail closes every committed CP (once per CP ordinal, so the per-CP
// streams stay one row per CP).
func (s *System) cpTail() {
	// Advance the tracer's modeled clock by the worker-invariant time this
	// CP (and the client ops since the last one) accrued, then record the
	// per-CP metric row.
	tot := s.c.DeviceBusy + s.c.CPUTime
	s.Agg.st.Advance(tot - s.obsMark)
	s.obsMark = tot
	s.runWatchdogs()
	if rec := s.Agg.obsOpts.CSV; rec != nil {
		rec.Record(s.Agg.obsOpts.Name, s.c.CPs, s.Agg.reg.Snapshot())
	}
	if l := s.Agg.obsOpts.Live; l != nil { // guard: don't snapshot when unused
		l.Publish(s.Agg.obsOpts.Name, s.Agg.reg.Snapshot())
	}
	s.maybeFragScan()
	if ts := s.Agg.obsOpts.TSDB; ts != nil {
		// Sample every registered metric into the per-CP time-series ring,
		// stamped with the worker-invariant modeled clock. StableSnapshot
		// excludes volatile metrics, so the stored series are byte-identical
		// across worker widths.
		ts.Sample(s.Agg.obsOpts.Name, s.c.CPs, tot, s.Agg.reg.StableSnapshot())
	}
	if e := s.Agg.sloEng; e != nil {
		// Evaluate the SLO portfolio against the series sampled above. The
		// alert state for this CP lands in the store immediately; the
		// slo.* scalar counters appear in CSV/live rows at the next CP.
		e.Evaluate(s.c.CPs, tot)
	}
	if c := s.Agg.ctl; c != nil {
		// Close the loop: the controller reads the series sampled above
		// (including the alert states the SLO engine just wrote) and
		// actuates knobs that take effect from the next CP on. Inputs and
		// knob trajectory are worker-invariant, so the actuation stream is
		// byte-identical at any worker width.
		c.Evaluate(s.c.CPs, tot)
	}
}

// attributeWrites charges a committed CP's modeled cost to the blocks it
// wrote — the write-side latency SLI, the per-stage attribution
// accumulators, and the sampled write traces — on the classic and the
// pipelined path alike. metaNS, scanCPU and cacheCPU are the CP's metafile,
// virtual-scan and cache CPU; gBusy is the groupBusy snapshot taken before
// the flush.
func (s *System) attributeWrites(st CPStats, metaNS, scanCPU, cacheCPU time.Duration,
	volBlocks map[*FlexVol]uint64, totalBlocks uint64, cands map[*FlexVol]*writeCand, gBusy []time.Duration) {
	// Latency SLI, write side: every block committed this CP shares the
	// CP's worker-invariant modeled cost (device time, metafile and
	// virtual-scan CPU, cache CPU) evenly, on top of the per-op base CPU
	// charge. FlushWall is deliberately excluded: it varies with worker
	// width, and the SLO engine requires invariant inputs.
	//
	// The per-block share is split by stage in the same proportions as the
	// CP cost it came from, with the device stage absorbing the integer
	// rounding remainder: the stages then sum to perBlock exactly, so the
	// attribution accumulators reconcile with the histogram total to the
	// nanosecond (optrace.attr_coverage == 1.0). The float64 scaling is
	// deterministic — IEEE ops on worker-invariant integers.
	if totalBlocks == 0 {
		return
	}
	cpCost := st.DeviceBusy + metaNS + scanCPU + cacheCPU
	cpPer := uint64(cpCost) / totalBlocks
	base := uint64(s.tun.CPUBasePerOp)
	perBlock := base + cpPer
	var metaPer, scanPer, cachePer, devPer uint64
	if cpCost > 0 {
		fc := float64(cpPer) / float64(cpCost)
		metaPer = uint64(fc * float64(metaNS))
		scanPer = uint64(fc * float64(scanCPU))
		cachePer = uint64(fc * float64(cacheCPU))
		devPer = cpPer - metaPer - scanPer - cachePer
	}
	for _, v := range s.Agg.vols {
		if n := volBlocks[v]; n > 0 {
			sp := v.space
			sp.lat.ObserveN(perBlock, n)
			sp.attr[optrace.StageBase] += n * base
			sp.attr[optrace.StageDevice] += n * devPer
			sp.attr[optrace.StageMetafile] += n * metaPer
			sp.attr[optrace.StageScan] += n * scanPer
			sp.attr[optrace.StageCache] += n * cachePer
		}
	}
	// Record the pending write traces: one per sampled (volume, CP)
	// batch, span durations from the same stage split the accumulators
	// used, plus a zero-duration allocator annotation (pick provenance,
	// stall/refill activity) and per-group flush leaf spans scaled to
	// the op's device share.
	for _, v := range s.Agg.vols {
		c := cands[v]
		if c == nil || volBlocks[v] == 0 {
			continue
		}
		sp := v.space
		rec, slow := sp.tr.Decide(c.sampled, perBlock)
		if !rec {
			continue
		}
		var flushTotal time.Duration
		for gi, g := range s.Agg.groups {
			flushTotal += g.deviceBusy - gBusy[gi]
		}
		var leaves []optrace.Span
		if devPer > 0 && flushTotal > 0 {
			for gi, g := range s.Agg.groups {
				if d := g.deviceBusy - gBusy[gi]; d > 0 {
					leaves = append(leaves, optrace.Span{
						Name:  fmt.Sprintf("rg%d", g.Index),
						DurNS: uint64(float64(devPer) * float64(d) / float64(flushTotal)),
					})
				}
			}
		}
		pk := sp.lastPick
		alloc := optrace.Span{
			Name: "alloc",
			Detail: fmt.Sprintf("aa=%d score=%d runner_up=%d reason=%s stalls=%d refills=%d",
				pk.aa, pk.score, pk.runner, pk.reason,
				sp.as.stalls-c.stalls0, sp.replenishes-c.replenishes0),
		}
		if d := sp.as.stallBusy - c.stallBusy0; d > 0 {
			alloc.Children = append(alloc.Children, optrace.Span{
				Name: "stall", Detail: fmt.Sprintf("busy_ns=%d", d)})
		}
		if d := sp.as.refillBusy - c.refillBusy0; d > 0 {
			alloc.Children = append(alloc.Children, optrace.Span{
				Name: "refill", Detail: fmt.Sprintf("busy_ns=%d", d)})
		}
		sp.tr.Add(optrace.Trace{
			ID: c.id, Kind: optrace.KindWrite.String(), Seq: c.seq, CP: s.c.CPs,
			AtNS:  int64(s.c.DeviceBusy + s.c.CPUTime),
			LatNS: perBlock, Blocks: volBlocks[v], Slow: slow,
			Spans: []optrace.Span{
				{Name: optrace.StageBase.String(), DurNS: base},
				alloc,
				{Name: optrace.StageDevice.String(), DurNS: devPer, Children: leaves},
				{Name: optrace.StageMetafile.String(), DurNS: metaPer},
				{Name: optrace.StageScan.String(), DurNS: scanPer},
				{Name: optrace.StageCache.String(), DurNS: cachePer},
			},
		})
	}
}

// groupBusy snapshots per-group device busy when write traces are pending,
// so their flush-time deltas can become device leaf spans.
func (s *System) groupBusy(cands map[*FlexVol]*writeCand) []time.Duration {
	if len(cands) == 0 {
		return nil
	}
	gBusy := make([]time.Duration, len(s.Agg.groups))
	for i, g := range s.Agg.groups {
		gBusy[i] = g.deviceBusy
	}
	return gBusy
}

// CPFlushWall returns the cumulative modeled wall-clock of CP flush phases:
// each CP contributes the makespan of its per-group (and pool) flush times
// over Tunables.Workers rather than their serial sum. Compare runs with
// Workers=1 vs Workers=N to see the concurrent-flush payoff.
func (s *System) CPFlushWall() time.Duration { return s.cpWall }

// virtScanBlocks sums the virtual allocation cursors' cumulative sweep
// lengths across volumes.
func (s *System) virtScanBlocks() uint64 {
	var n uint64
	for _, v := range s.Agg.vols {
		n += v.space.scannedBlocks
	}
	return n
}

// PunchHoles deallocates every written LUN block whose LBA the predicate
// selects, freeing both its virtual and physical VBNs (the effect of a SCSI
// UNMAP or of deleting file ranges). It must be called between CPs — with
// dirty buffers pending or a pipelined generation still flushing it returns
// ErrCPInProgress; the score updates batch into the next CP as usual.
// Returns the number of blocks freed.
func (s *System) PunchHoles(l *LUN, select_ func(lba uint64) bool) (int, error) {
	if s.pendingBlocks > 0 || s.pipe.inFlight {
		return 0, ErrCPInProgress
	}
	freed := 0
	for lba := range l.blocks {
		p := l.blocks[lba]
		if p.phys == block.InvalidVBN || !select_(uint64(lba)) {
			continue
		}
		if s.unref(l.vol, p) {
			freed++
		}
		l.blocks[lba] = blockPtr{virt: block.InvalidVBN, phys: block.InvalidVBN}
	}
	return freed, nil
}

// cacheOps sums the cumulative AA-cache maintenance operations across all
// caches.
func (s *System) cacheOps() uint64 {
	var n uint64
	for _, g := range s.Agg.groups {
		n += g.cacheOps
	}
	for _, v := range s.Agg.vols {
		n += v.space.cacheOps
	}
	if s.Agg.pool != nil {
		n += s.Agg.pool.space.cacheOps
	}
	return n
}

// DeviceBusyTimes returns each data device's cumulative busy time, grouped
// by RAID group — the per-device service demands the MVA model consumes.
func (s *System) DeviceBusyTimes() [][]time.Duration {
	out := make([][]time.Duration, len(s.Agg.groups))
	for gi, g := range s.Agg.groups {
		times := make([]time.Duration, 0, len(g.devices)+1)
		for _, d := range g.devices {
			if st, ok := d.(deviceStatser); ok {
				times = append(times, st.Stats().BusyTime)
			}
		}
		if st, ok := g.parity.(deviceStatser); ok {
			times = append(times, st.Stats().BusyTime)
		}
		out[gi] = times
	}
	return out
}

// WriteAmplification averages FTL write amplification over all SSD groups
// (0 if the aggregate has none).
func (s *System) WriteAmplification() float64 {
	var sum float64
	var n int
	for _, g := range s.Agg.groups {
		if wa := g.WriteAmplification(); wa > 0 {
			sum += wa
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ResetMetrics zeroes the measurement counters of every group and volume
// allocator (the cumulative Counters are unaffected; snapshot those with
// Counters and subtract).
func (s *System) ResetMetrics() {
	for _, g := range s.Agg.groups {
		g.ResetMetrics()
	}
	for _, v := range s.Agg.vols {
		v.ResetMetrics()
	}
}

// FTLTotals sums FTL accounting across every SSD data device in the
// aggregate, so experiments can compute write amplification over a
// measurement window by delta.
func (s *System) FTLTotals() device.FTLStats {
	var t device.FTLStats
	for _, g := range s.Agg.groups {
		gt := g.FTLTotals()
		t.HostWrites += gt.HostWrites
		t.NANDWrites += gt.NANDWrites
		t.Relocated += gt.Relocated
		t.Erases += gt.Erases
		t.Trims += gt.Trims
	}
	return t
}
