package wafl

import (
	"fmt"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/parallel"
)

// Per-worker allocation contexts (the striped allocator hot path).
//
// With AllocShards > 1 every space (RAID group or virtual space) routes its
// picks through per-shard queues (heapcache.Sharded / hbps.Sharded) and
// accumulates its score deltas in per-shard ledgers instead of the shared
// delta map. The shard for each pick is seq % shards — a fixed assignment
// keyed by (space, pick sequence), independent of the Workers knob — so the
// pick stream, every staged batch, and every folded delta are bit-identical
// at any worker width. Ledgers fold into the shared delta map in
// shard-index order (IDs sorted within a shard) when the generation seals
// (Group.sealCP, agnosticSpace.sealCPDeltas), so the commit-time fold
// observes exactly the totals the shared path would have accumulated.
//
// Contention is modeled, not measured: picks execute serially on the CP
// thread (like FlushWall's flush tasks), and each shard's pick time
// accrues to a per-shard busy vector. AllocPickWall schedules those
// vectors over W workers via parallel.Makespan — shard-local picks
// parallelize, synchronous stall refills serialize, and pipelined staging
// is hidden behind ongoing picks. The classic path charges all picks to a
// single vector, which is what makes the shared-vs-striped walls
// comparable. One pick's critical section and one staging move both cost
// CPUPerCacheOp, the same unit the cache-maintenance accounting uses.
const defaultAllocBatch = 8

type allocState struct {
	shards int
	batch  int
	opCost time.Duration

	seq      uint64 // picks issued; shard = seq % shards
	curShard int    // shard of the in-flight pick (noteAlloc target)

	// ledgers[s] holds shard s's pending score deltas (frees positive,
	// allocations negative), folded into the shared delta map at CP
	// boundaries. Classic mode (shards == 1 via AllocShards ≤ 1) bypasses
	// the ledgers entirely — deltas go straight to the shared map.
	ledgers []map[aa.ID]int64

	pickBusy   []time.Duration // modeled shard-local pick time
	refillBusy time.Duration   // pipelined staging (hidden behind picks)
	stallBusy  time.Duration   // synchronous refills (serialize)

	picks      uint64 // all picks through this state
	localPicks uint64 // picks served shard-locally (no shared touch)
	stalls     uint64 // synchronous refills on an empty shard
	staged     uint64 // entries moved shared→shard by pipelined staging
	dupSkips   uint64 // duplicate IDs discarded while staging (HBPS)
	folds      uint64 // ledger entries folded at CP boundaries
}

func newAllocState(tun Tunables) *allocState {
	n := tun.AllocShards
	if n < 1 {
		n = 1
	}
	b := tun.AllocBatch
	if b <= 0 {
		b = defaultAllocBatch
	}
	as := &allocState{
		shards:   n,
		batch:    b,
		opCost:   tun.CPUPerCacheOp,
		ledgers:  make([]map[aa.ID]int64, n),
		pickBusy: make([]time.Duration, n),
	}
	for i := range as.ledgers {
		as.ledgers[i] = make(map[aa.ID]int64)
	}
	return as
}

// sharded reports whether the striped pick path is active.
func (as *allocState) sharded() bool { return as.shards > 1 }

// nextShard returns the fixed shard for the next pick and advances the
// sequence. Keyed by pick ordinal only, so any worker width replays the
// same assignment.
func (as *allocState) nextShard() int {
	s := int(as.seq % uint64(as.shards))
	as.seq++
	return s
}

// note records one score delta: shard-local ledger when striped (the
// in-flight pick's shard for allocations; id-keyed for frees so a block
// freed between CPs lands in a deterministic ledger regardless of which
// pick is in flight), shared map otherwise.
func (as *allocState) noteAlloc(id aa.ID, deltas map[aa.ID]int64) {
	if as.sharded() {
		as.ledgers[as.curShard][id]--
		return
	}
	deltas[id]--
}

func (as *allocState) noteFree(id aa.ID, deltas map[aa.ID]int64) {
	if as.sharded() {
		as.ledgers[int(uint64(id)%uint64(as.shards))][id]++
		return
	}
	deltas[id]++
}

// pending returns the total pending delta for id: the shared map plus
// every shard ledger. This is the quantity the scrub/watchdog invariant
// uses — cachedScore == bitmapScore − pending — and it holds mid-CP for
// staged entries exactly because bitmap and delta mutations move together.
func (as *allocState) pending(id aa.ID, deltas map[aa.ID]int64) int64 {
	d := deltas[id]
	if as.sharded() {
		for _, l := range as.ledgers {
			d += l[id]
		}
	}
	return d
}

// clearPending discards every pending delta for id (the score was just
// recomputed from the bitmap, e.g. finishAA or a cleaning pass).
func (as *allocState) clearPending(id aa.ID, deltas map[aa.ID]int64) {
	delete(deltas, id)
	if as.sharded() {
		for _, l := range as.ledgers {
			delete(l, id)
		}
	}
}

// fold merges every shard ledger into the shared delta map and empties the
// ledgers: shard-index order, IDs sorted within each shard, so the merged
// map is identical at any worker width. Returns entries folded.
func (as *allocState) fold(deltas map[aa.ID]int64) int {
	if !as.sharded() {
		return 0
	}
	n := 0
	for s, l := range as.ledgers {
		if len(l) == 0 {
			continue
		}
		for _, id := range sortedIDs(l) {
			if d := deltas[id] + l[id]; d == 0 {
				delete(deltas, id)
			} else {
				deltas[id] = d
			}
			n++
		}
		as.ledgers[s] = make(map[aa.ID]int64)
	}
	as.folds += uint64(n)
	return n
}

// resetCounters zeroes the profile counters and busy vectors (ResetMetrics:
// the boundary between an experiment's aging and measurement phases).
func (as *allocState) resetCounters() {
	for i := range as.pickBusy {
		as.pickBusy[i] = 0
	}
	as.refillBusy, as.stallBusy = 0, 0
	as.picks, as.localPicks, as.stalls, as.staged, as.dupSkips, as.folds = 0, 0, 0, 0, 0, 0
}

// clearLedgers drops all ledger state (remount, repair, replenish — paths
// that rebuild scores from the bitmap and discard pending deltas).
func (as *allocState) clearLedgers() {
	if !as.sharded() {
		return
	}
	for i := range as.ledgers {
		as.ledgers[i] = make(map[aa.ID]int64)
	}
}

// residue returns the first ledger entry in deterministic order, for the
// post-fold watchdog: after the seal-time fold every ledger must be empty.
func (as *allocState) residue() (shard int, id aa.ID, d int64, ok bool) {
	if !as.sharded() {
		return 0, 0, 0, false
	}
	for s, l := range as.ledgers {
		if len(l) == 0 {
			continue
		}
		ids := sortedIDs(l)
		return s, ids[0], l[ids[0]], true
	}
	return 0, 0, 0, false
}

// busyTotal sums the per-shard pick vectors (the serial pick time).
func (as *allocState) busyTotal() time.Duration {
	var t time.Duration
	for _, d := range as.pickBusy {
		t += d
	}
	return t
}

// AllocProfile is one space's striped-allocator profile.
type AllocProfile struct {
	// Space names the profiled space ("rg<N>", "vol.<name>", "pool").
	Space string
	// Shards is the stripe width (1 = classic shared path).
	Shards int
	// Picks counts all picks; LocalPicks the shard-local subset.
	Picks, LocalPicks uint64
	// Stalls counts synchronous refills; Staged the pipelined entries.
	Stalls, Staged uint64
	// DupSkips counts duplicates discarded while staging (HBPS only).
	DupSkips uint64
	// ShardBusy is the per-shard modeled pick time (len == Shards).
	ShardBusy []time.Duration
	// RefillBusy is pipelined staging time (hidden behind picks);
	// StallBusy is synchronous refill time (serializes).
	RefillBusy, StallBusy time.Duration
}

// AllocProfiles returns every space's allocation profile in canonical
// order: groups by index, volumes by creation order, then the pool.
func (ag *Aggregate) AllocProfiles() []AllocProfile {
	var out []AllocProfile
	add := func(name string, as *allocState) {
		out = append(out, AllocProfile{
			Space:      name,
			Shards:     as.shards,
			Picks:      as.picks,
			LocalPicks: as.localPicks,
			Stalls:     as.stalls,
			Staged:     as.staged,
			DupSkips:   as.dupSkips,
			ShardBusy:  append([]time.Duration(nil), as.pickBusy...),
			RefillBusy: as.refillBusy,
			StallBusy:  as.stallBusy,
		})
	}
	for _, g := range ag.groups {
		add(fmt.Sprintf("rg%d", g.Index), g.as)
	}
	for _, v := range ag.vols {
		add("vol."+v.Name, v.space.as)
	}
	if ag.pool != nil {
		add("pool", ag.pool.space.as)
	}
	return out
}

// AllocPickWall is the modeled wall-clock of the aggregate's pick workload
// at the given worker width: every space's per-shard busy vectors schedule
// over the workers (parallel.Makespan's deterministic greedy order, the
// same model FlushWall uses), and synchronous stalls — which contend on
// the shared structures — serialize on top. The classic path charges all
// picks to one vector per space, so shared-vs-striped walls compare
// directly. Pipelined staging time is excluded: it is the latency the
// refill pipeline hides behind ongoing picks.
func (ag *Aggregate) AllocPickWall(workers int) time.Duration {
	var tasks []time.Duration
	var stalls time.Duration
	collect := func(as *allocState) {
		for _, d := range as.pickBusy {
			if d > 0 {
				tasks = append(tasks, d)
			}
		}
		stalls += as.stallBusy
	}
	for _, g := range ag.groups {
		collect(g.as)
	}
	for _, v := range ag.vols {
		collect(v.space.as)
	}
	if ag.pool != nil {
		collect(ag.pool.space.as)
	}
	return parallel.Makespan(tasks, workers) + stalls
}
