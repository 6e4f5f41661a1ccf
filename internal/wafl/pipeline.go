package wafl

import (
	"time"

	"waflfs/internal/faultinject"
	"waflfs/internal/parallel"
)

// Pipelined consistency points (Tunables.Pipeline). Production WAFL never
// stops the world for a CP: while CP n's dirty data drains to disk, the
// frontend keeps accepting writes that allocate into CP n+1. This file
// models that overlap on the deterministic clock. Each CP boundary:
//
//  1. allocates the pending writes into the OPEN generation (the classic
//     phase-1 mechanics, byte for byte),
//  2. if a generation is in flight, commits it — flush, cache fold,
//     metafile write-back — from the SEALED banks (CommitPipelinedCP),
//  3. seals the open generation: delta ledgers, write sets, AZCS queues,
//     pool banks, and delayed-free queues all swap into the flush banks
//     while fresh open structures take their place,
//  4. charges the modeled wall max(alloc_open, flush_sealed) instead of
//     their sum — the overlap win the cp.pipeline.* metrics expose.
//
// Every measured counter stays worker-count invariant; only the modeled
// walls (alloc via parallel.Makespan, flush via CPStats.FlushWall) vary
// with Tunables.Workers, exactly like the classic FlushWall. The final
// generation stays in flight until the next boundary — callers reading
// artifacts (snapshots, refcount checks, benches) must Drain() first.

// pipeGen is the metadata of a sealed generation, captured at seal so its
// flush can attribute latency and traces to the CP the writes belong to.
type pipeGen struct {
	// ord is the CP ordinal this generation commits as.
	ord         uint64
	volBlocks   map[*FlexVol]uint64
	totalBlocks uint64
	cands       map[*FlexVol]*writeCand
	// allocScan/allocCache are the CPU charges of the generation's alloc
	// phase, carried here so the flush-time latency SLI covers the whole
	// generation cost.
	allocScan  time.Duration
	allocCache time.Duration
	// allocWall is the modeled wall-clock of the alloc phase.
	allocWall time.Duration
}

// cpPipeline is the System's pipelined-CP state plus the cp.pipeline.*
// accumulators. Zero-valued (and untouched) when Pipeline is off.
type cpPipeline struct {
	inFlight bool
	gen      pipeGen

	// generations counts sealed generations (worker-invariant).
	generations uint64
	// Wall accumulators (worker-sensitive, exported as volatile metrics):
	// serialWall is what a stop-the-world schedule would have cost
	// (alloc + flush per generation), pipedWall what the overlap costs
	// (max per generation). Their ratio is the overlap gain.
	allocWall  time.Duration
	flushWall  time.Duration
	pipedWall  time.Duration
	serialWall time.Duration
}

// PipelineStats is a snapshot of the pipelined-CP accounting.
type PipelineStats struct {
	// Generations counts sealed generations.
	Generations uint64
	// AllocWall/FlushWall are the summed per-generation modeled walls.
	AllocWall time.Duration
	FlushWall time.Duration
	// PipelinedWall is Σ max(alloc, flush) — the modeled sustained-write
	// wall with the overlap. SerialWall is Σ (alloc + flush) — what the
	// stop-the-world schedule would have cost.
	PipelinedWall time.Duration
	SerialWall    time.Duration
}

// OverlapGain returns SerialWall / PipelinedWall (0 when nothing ran):
// ≥ 1 always, 2 at perfect alloc/flush balance.
func (p PipelineStats) OverlapGain() float64 {
	if p.PipelinedWall == 0 {
		return 0
	}
	return float64(p.SerialWall) / float64(p.PipelinedWall)
}

// PipelineStats returns the pipelined-CP accounting.
func (s *System) PipelineStats() PipelineStats {
	return PipelineStats{
		Generations:   s.pipe.generations,
		AllocWall:     s.pipe.allocWall,
		FlushWall:     s.pipe.flushWall,
		PipelinedWall: s.pipe.pipedWall,
		SerialWall:    s.pipe.serialWall,
	}
}

// InFlight reports whether a sealed generation is still awaiting its flush
// (Drain commits it).
func (s *System) InFlight() bool { return s.pipe.inFlight }

// cpPipelined is the pipelined CP boundary (see the file comment for the
// stage order). It returns the CPStats of the generation that COMMITTED at
// this boundary — zero at the first boundary, when nothing was in flight.
func (s *System) cpPipelined() CPStats {
	cacheOpsBefore := s.cacheOps()
	scanBefore := s.virtScanBlocks()
	ord := s.c.CPs + 1
	if s.pipe.inFlight {
		ord = s.c.CPs + 2 // the in-flight generation commits first
	}
	s.Agg.cpOrd = ord
	s.Agg.st.BeginCP()
	s.Agg.faults.BeginCP()
	if s.pipe.inFlight {
		s.Agg.faults.EnterPhase(faultinject.PhaseOverlapAlloc)
	} else {
		s.Agg.faults.EnterPhase(faultinject.PhaseAlloc)
	}

	// Open-generation allocation: the classic phase 1, shared code.
	volBlocks, totalBlocks, cands := s.allocPending()

	// Charge the alloc phase's CPU now (worker-invariant), but carry the
	// amounts in the generation so its flush-time SLI covers them.
	allocScan := time.Duration(s.virtScanBlocks()-scanBefore) * s.tun.CPUPerVirtAllocScan
	allocCache := time.Duration(s.cacheOps()-cacheOpsBefore) * s.tun.CPUPerCacheOp
	s.c.CPUTime += allocScan + allocCache
	s.c.CacheCPUTime += allocCache

	// Modeled alloc wall: each volume's allocation work (its blocks at the
	// base per-op cost) is volume-local, so it fans out over the work pool
	// the way the flush fans out over groups.
	volBusy := make([]time.Duration, 0, len(s.Agg.vols))
	for _, v := range s.Agg.vols {
		if n := volBlocks[v]; n > 0 {
			volBusy = append(volBusy, time.Duration(n)*s.tun.CPUBasePerOp)
		}
	}
	allocWall := parallel.Makespan(volBusy, s.Agg.workers())

	// Commit the in-flight generation while (logically) the allocation
	// above was running — the overlap the wall accounting below models.
	var st CPStats
	var flushWall time.Duration
	committed := s.pipe.inFlight
	if committed {
		st = s.flushGeneration()
		flushWall = st.FlushWall
	}

	// Seal the generation just allocated; it flushes at the next boundary.
	s.sealGeneration(pipeGen{
		ord: s.c.CPs + 1, volBlocks: volBlocks, totalBlocks: totalBlocks,
		cands: cands, allocScan: allocScan, allocCache: allocCache,
		allocWall: allocWall,
	})

	// The boundary's modeled wall is max(alloc, flush), not their sum.
	wall := allocWall
	if flushWall > wall {
		wall = flushWall
	}
	s.cpWall += wall
	s.pipe.allocWall += allocWall
	s.pipe.flushWall += flushWall
	s.pipe.pipedWall += wall
	s.pipe.serialWall += allocWall + flushWall

	if committed {
		s.cpTail()
	}
	return st
}

// sealGeneration swaps every open bank into the flush banks: group and
// space delta ledgers (shard ledgers folded first, classic order), write
// sets, AZCS queues, the pool's tiered-block bank, and the delayed-free
// queues (the sealed queue absorbs the open one — including any budget
// carryover already waiting there). Shard staging generations advance so
// the watchdog can pin held batches to the generation they predate.
func (s *System) sealGeneration(gen pipeGen) {
	for _, g := range s.Agg.groups {
		g.sealCP()
		if g.sh != nil {
			g.sh.AdvanceGen()
		}
	}
	for _, v := range s.Agg.vols {
		sp := v.space
		sp.sealCPDeltas()
		if sp.delayed != nil {
			if sp.delayedSealed == nil {
				sp.delayedSealed = newDelayedFrees()
			}
			sp.delayedSealed.absorb(sp.delayed)
		}
		if sp.sh != nil {
			sp.sh.AdvanceGen()
		}
	}
	if p := s.Agg.pool; p != nil {
		p.sealCP()
		p.space.sealCPDeltas()
		if p.space.sh != nil {
			p.space.sh.AdvanceGen()
		}
	}
	s.pipe.gen = gen
	s.pipe.inFlight = true
	s.pipe.generations++
}

// flushGeneration commits the sealed generation: sealed delayed frees are
// reclaimed into the flush banks, the banks flush and fold with the classic
// phase structure, and the generation's latency SLI and write traces are
// attributed using the metadata captured at seal plus the flush-measured
// costs — so attr coverage reconciles exactly, as on the classic path.
func (s *System) flushGeneration() CPStats {
	gen := s.pipe.gen
	s.Agg.faults.EnterPhase(faultinject.PhaseOverlapFlush)
	for _, v := range s.Agg.vols {
		freed, aas := v.space.reclaimSealedFrees(s.tun.DelayedFreeBudgetPerCP)
		if freed > 0 {
			s.Agg.st.Emit("cp.delayed_free", v.space.shard, "reclaim", 0, int64(freed))
			s.Agg.st.Emit("cp.delayed_free", v.space.shard, "aas_processed", 0, int64(aas))
		}
	}

	gBusy := s.groupBusy(gen.cands)
	cacheOpsBefore := s.cacheOps()
	st := s.Agg.CommitPipelinedCP()
	s.c.CPs++
	s.c.DeviceBusy += st.DeviceBusy
	pages := uint64(st.MetafilePagesAggregate + st.MetafilePagesVols)
	s.c.MetafilePages += pages
	s.c.TopAABlocks += uint64(st.TopAABlocks)
	metaNS := time.Duration(pages) * s.tun.CPUPerMetafilePage
	s.c.CPUTime += metaNS
	foldCache := time.Duration(s.cacheOps()-cacheOpsBefore) * s.tun.CPUPerCacheOp
	s.c.CPUTime += foldCache
	s.c.CacheCPUTime += foldCache

	// Latency SLI and traces for the committed generation: the classic
	// split, with the alloc-phase CPU carried over from seal time and the
	// fold CPU measured here.
	s.attributeWrites(st, metaNS, gen.allocScan, gen.allocCache+foldCache,
		gen.volBlocks, gen.totalBlocks, gen.cands, gBusy)
	s.pipe.gen = pipeGen{}
	s.pipe.inFlight = false
	return st
}

// Drain commits the in-flight generation of a pipelined System, with no
// new allocation to overlap it — a quiesce point. No-op (zero CPStats)
// when nothing is in flight, including on the classic path. Callers must
// Drain before reading artifacts that assume all CPs have committed:
// snapshots at a boundary, refcount checks, bench counters, remounts.
func (s *System) Drain() CPStats {
	if !s.pipe.inFlight {
		return CPStats{}
	}
	s.Agg.cpOrd = s.c.CPs + 1
	s.Agg.st.BeginCP()
	s.Agg.faults.BeginCP()
	st := s.flushGeneration()
	s.cpWall += st.FlushWall
	s.pipe.flushWall += st.FlushWall
	s.pipe.pipedWall += st.FlushWall
	s.pipe.serialWall += st.FlushWall
	s.cpTail()
	return st
}
