package wafl

import (
	"time"

	"waflfs/internal/faultinject"
)

// CP generations. Every CP boundary runs the same three stages:
//
//  1. allocate the pending writes into the OPEN generation (allocPending),
//  2. seal it: delta ledgers, write sets, AZCS queues, and the pool bank
//     swap into the flush banks (sealGeneration),
//  3. commit a SEALED generation: delayed-free reclaim, flush, cache fold,
//     metafile write-back (flushGeneration → Aggregate.CommitCP).
//
// The classic CP commits the generation it just sealed. Under
// Tunables.Pipeline production WAFL's overlap is modeled instead: while CP
// n's dirty data drains to disk, the frontend keeps accepting writes that
// allocate into CP n+1, so a boundary commits the generation sealed one
// boundary earlier and charges the modeled wall max(alloc_open,
// flush_sealed) instead of their sum — the overlap win the cp.pipeline.*
// metrics expose. The two schedules differ only in
//
//   - which generation a boundary commits (System.CP),
//   - the wall accounting: FlushWall alone vs max(alloc, flush),
//   - the cp.pipeline.* accumulators, which stay zero on the classic path,
//   - the delayed-free queue handoff: the pipelined seal moves the open
//     queue into delayedSealed, while the classic commit reclaims straight
//     from the open queue (absorb re-tracks AAs in ID order, which would
//     change the classic reclaim order under a budget).
//
// Every measured counter stays worker-count invariant; only the modeled
// walls (alloc via parallel.Makespan, flush via CPStats.FlushWall) vary
// with Tunables.Workers. A pipelined System's final generation stays in
// flight until the next boundary — callers reading artifacts (snapshots,
// refcount checks, benches) must Drain() first.

// pipeGen is the metadata of a sealed generation, captured at seal so its
// commit can attribute latency and traces to the CP the writes belong to.
type pipeGen struct {
	volBlocks   map[*FlexVol]uint64
	totalBlocks uint64
	cands       map[*FlexVol]*writeCand
	// allocScan/allocCache are the CPU charges of the generation's alloc
	// phase, carried here so the commit-time latency SLI covers the whole
	// generation cost.
	allocScan  time.Duration
	allocCache time.Duration
}

// cpPipeline is the System's generation state plus the cp.pipeline.*
// accumulators, which only the pipelined schedule advances.
type cpPipeline struct {
	inFlight bool
	gen      pipeGen

	// generations counts pipelined seals (worker-invariant).
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

// addWalls charges one pipelined boundary's modeled walls: the System's
// CP wall and the cp.pipeline.* accumulators advance by max(alloc, flush).
func (s *System) addWalls(alloc, flush time.Duration) {
	wall := max(alloc, flush)
	s.cpWall += wall
	s.pipe.allocWall += alloc
	s.pipe.flushWall += flush
	s.pipe.pipedWall += wall
	s.pipe.serialWall += alloc + flush
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

// sealGeneration swaps every open bank into the flush banks: group and
// space delta ledgers (shard ledgers folded first), write sets, AZCS
// queues, and the pool's tiered-block bank. Under Tunables.Pipeline the
// sealed delayed-free queue also absorbs the open one — including any
// budget carryover already waiting there. Shard staging generations
// advance so the watchdog can pin held batches to the generation they
// predate.
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
		if s.tun.Pipeline && sp.delayed != nil {
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
}

// flushGeneration commits the sealed generation, entering the given fault
// phase first: queued delayed frees are reclaimed into the flush banks
// (from the sealed queue when pipelined, the open queue otherwise), the
// banks flush and fold (Aggregate.CommitCP), and the generation's latency
// SLI and write traces are attributed using the metadata captured at seal
// plus the commit-measured costs — so attr coverage reconciles exactly.
func (s *System) flushGeneration(phase string) CPStats {
	gen := s.pipe.gen
	s.Agg.faults.EnterPhase(phase)
	cacheOpsBefore := s.cacheOps()
	for _, v := range s.Agg.vols {
		q := v.space.delayed
		if s.tun.Pipeline {
			q = v.space.delayedSealed
		}
		freed, aas := v.space.reclaimFrees(q, s.tun.DelayedFreeBudgetPerCP)
		if freed > 0 {
			s.Agg.st.Emit("cp.delayed_free", v.space.shard, "reclaim", 0, int64(freed))
			s.Agg.st.Emit("cp.delayed_free", v.space.shard, "aas_processed", 0, int64(aas))
		}
	}

	gBusy := s.groupBusy(gen.cands)
	st := s.Agg.CommitCP()
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

	// Latency SLI and traces for the committed generation, with the
	// alloc-phase CPU carried over from seal time and the fold CPU
	// measured here.
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
	st := s.flushGeneration(faultinject.PhaseOverlapFlush)
	s.addWalls(0, st.FlushWall)
	s.cpTail()
	return st
}
