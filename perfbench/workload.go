package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/control"
	"waflfs/internal/obs"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
)

// segmentCPs is the length, in CP intervals, of the reference-clock
// segments (see ref.go); ops_per_s is the median over the measured phase's
// full segments.
const segmentCPs = 16

// Flush policy, identical on every workload: the benchmark itself calls
// System.CP() after every cpEveryWrites writes, and Tunables.CPEveryOps is
// set above any run's write count so the System never triggers one itself.
// Every CP is therefore one timed call. The classic CP and pick paths are
// used (Pipeline off, AllocShards off).
const cpEveryWrites = 4096

// Sizes shared by the workloads. Both aggregates are two RAID groups of
// 6 data + 1 parity devices of devBlocks 4KiB blocks each.
const (
	devBlocks = 1 << 16
	aggBlocks = 2 * 6 * devBlocks
	// hddStripesPerAA makes snapshot-failover's AAs small: 65536/16 = 4096
	// AAs per group against TopAA's 512-entry seed.
	hddStripesPerAA = 16
)

// workload is one benchmark input: how to build and age the system (the
// timed set-up) and the measured phase run against it.
type workload struct {
	name    string
	build   func(d *driver, seed int64, workers int)
	measure func(d *driver)
	// probeMount remounts from TopAA after the measured phase, for the
	// workloads whose measured phase mounts nothing.
	probeMount bool
}

var workloads = []workload{
	{name: "oltp-aged", build: func(d *driver, seed int64, w int) { buildOLTP(d, seed, w, false) }, measure: measureOLTP, probeMount: true},
	{name: "oltp-observed", build: func(d *driver, seed int64, w int) { buildOLTP(d, seed, w, true) }, measure: measureOLTP, probeMount: true},
	{name: "snapshot-failover", build: buildSnapshotFailover, measure: measureSnapshotFailover},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Per-round op counts of the measured phases. They are fixed, not timed, so
// every modeled metric is exact for a seed.
const (
	oltpOps        = 1_800_000 // 2:1 read:write, 147 CPs
	failoverWrites = 128 * cpEveryWrites
	snapEveryCPs   = 4  // snapshot rotation on every LUN
	failEveryCPs   = 16 // seeded Remount(true) + timed first CP + background fill
	// Remounts happen two CPs after a rotation, at a CP boundary with no
	// uncommitted frees: a Remount(true) right after DeleteSnapshot drops
	// the frees' pending deltas while the bitmap keeps them, and the scrub
	// then finds the seeded scores stale.
	failAtCP = 10 // seeded failovers after CP 10, 26, 42, ...
	walkAtCP = 34 // the one Remount(false) walk of each round
)

func baseTunables(workers int) wafl.Tunables {
	tun := wafl.DefaultTunables()
	tun.Workers = workers
	tun.CPEveryOps = math.MaxInt32
	return tun
}

// armedObs arms every observability sink the way the artifact collector
// does: fragscan every CP, TSDB, picks, watchdogs, the default SLO specs,
// op tracing at rate 16 and the default control policies.
func armedObs(seed int64) *wafl.ObsOptions {
	return &wafl.ObsOptions{
		Name:      "bench",
		Export:    obs.NewRegistry(),
		Frag:      fragscan.NewRecorder(),
		FragEvery: 1,
		TSDB:      tsdb.NewStore(tsdb.Config{Capacity: 128, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		Picks:     picks.NewRecorder(picks.DefaultConfig()),
		Watchdogs: true,
		SLO:       slo.NewSet(slo.DefaultSpecs()),
		OpTrace:   optrace.NewRecorder(optrace.Config{Rate: 16, Seed: seed}),
		Control:   control.NewSet(control.DefaultPolicies()),
	}
}

// buildOLTP is the fig6 aggregate: SSD groups with 2MiB erase blocks and 8%
// overprovisioning, one thin-provisioned FlexVol twice the LUN, the LUN 55%
// of the aggregate, filled sequentially and churned by 1.2x random 4KiB
// overwrites (§4.1).
func buildOLTP(d *driver, seed int64, workers int, observed bool) {
	g := wafl.GroupSpec{
		DataDevices: 6, ParityDevices: 1, BlocksPerDevice: devBlocks,
		Media: aa.MediaSSD, EraseBlockBlocks: 512, Overprovision: 0.08,
	}
	tun := baseTunables(workers)
	if observed {
		tun.Obs = armedObs(seed)
	}
	lunBlocks := uint64(aggBlocks * 55 / 100)
	d.s = wafl.NewSystem([]wafl.GroupSpec{g, g}, []wafl.VolSpec{{Name: "vol0", Blocks: 2 * lunBlocks}}, tun, seed)
	d.luns = []*wafl.LUN{d.s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)}
	d.age()
}

// measureOLTP is the §4.2 OLTP mix: 2:1 read:write 4KiB random ops.
func measureOLTP(d *driver) {
	for i := 0; i < oltpOps; i++ {
		l := d.luns[d.rng.Intn(len(d.luns))]
		lba := uint64(d.rng.Int63n(int64(l.Blocks())))
		if d.rng.Intn(3) < 2 {
			d.read(l, lba)
		} else {
			d.write(l, lba)
		}
	}
	d.flush()
}

// buildSnapshotFailover: HDD groups whose AAs are small enough that each
// group has 4096 AAs, and four FlexVols with delayed virtual frees, each
// holding one LUN; the LUNs together are 30% of the aggregate.
func buildSnapshotFailover(d *driver, seed int64, workers int) {
	g := wafl.GroupSpec{
		DataDevices: 6, ParityDevices: 1, BlocksPerDevice: devBlocks,
		Media: aa.MediaHDD, StripesPerAA: hddStripesPerAA,
	}
	tun := baseTunables(workers)
	tun.DelayedVirtFrees = true
	lunBlocks := uint64(aggBlocks * 30 / 100 / 4)
	var vols []wafl.VolSpec
	for i := 0; i < 4; i++ {
		vols = append(vols, wafl.VolSpec{Name: fmt.Sprintf("vol%d", i), Blocks: 2 * lunBlocks})
	}
	d.s = wafl.NewSystem([]wafl.GroupSpec{g, g}, vols, tun, seed)
	for _, v := range d.s.Agg.Vols() {
		d.luns = append(d.luns, v.CreateLUN("lun0", lunBlocks))
	}
	d.age()
}

// measureSnapshotFailover: random 4KiB overwrites, a snapshot rotation on
// every LUN each snapEveryCPs CPs, a seeded failover each failEveryCPs CPs
// (Remount(true), the timed first CP, then §3.4's background fill), and one
// Remount(false) walk.
func measureSnapshotFailover(d *driver) {
	prev := make([]string, len(d.luns))
	cps := 0
	fillDue := false
	d.afterCP = func() {
		cps++
		if fillDue {
			fillDue = false
			d.backgroundFill()
		}
		if cps%snapEveryCPs == 0 {
			for i, l := range d.luns {
				if prev[i] != "" {
					d.deleteSnapshot(l, prev[i])
				}
				prev[i] = fmt.Sprintf("s%d", cps)
				d.createSnapshot(l, prev[i])
			}
		}
		if cps%failEveryCPs == failAtCP {
			d.remount(true)
			d.nextCPFirst = true
			fillDue = true
		}
		if cps == walkAtCP {
			d.remount(false)
		}
	}
	for i := 0; i < failoverWrites; i++ {
		l := d.luns[d.rng.Intn(len(d.luns))]
		d.write(l, uint64(d.rng.Int63n(int64(l.Blocks()))))
	}
	d.afterCP = nil
	d.flush()
}

// driver issues one client's calls into the System in a closed loop: each
// call returns before the next is made. It applies the flush policy, keeps
// the reference clock (see ref.go) and, when tr is set, records a span
// around every call.
type driver struct {
	s    *wafl.System
	luns []*wafl.LUN
	rng  *rand.Rand
	ref  *refKernel
	tr   *tracer // nil on untraced rounds

	// afterCP runs after each policy-triggered CP of the measured phase.
	afterCP func()
	// nextCPFirst marks the next CP as the first one after a remount.
	nextCPFirst bool

	writesSinceCP int
	measuring     bool

	// Issued during the measured phase.
	reads, writes, snapOps, failed uint64
	seeded                         []wafl.MountStats

	// Reference clock. A segment is segmentCPs CP intervals, or the rest of
	// a phase; its host time counts refTime at the mean kernel rate of its
	// two ends.
	segStart time.Time
	segRate  float64 // kernel rate at the segment's start
	segOps   uint64
	segCPs   int
	segCPNs  []time.Duration // host time of the segment's CPs
	refTime  float64         // reference seconds of the closed segments
	refRates []float64       // every kernel rate taken

	// Measured phase, in reference time.
	cpMs  []float64 // each System.CP() call
	rates []float64 // ops per second of each full segment

	peakHeap   uint64
	heapSample []metrics.Sample
}

// newDriver starts the reference clock; the set-up builds the system.
func newDriver(seed int64, ref *refKernel) *driver {
	d := &driver{
		rng:        rand.New(rand.NewSource(seed ^ 0x5eed)),
		ref:        ref,
		heapSample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	d.openSegment(ref.rate())
	return d
}

func (d *driver) ops() uint64 { return d.reads + d.writes + d.snapOps }

func (d *driver) openSegment(rate float64) {
	d.refRates = append(d.refRates, rate)
	d.segRate = rate
	d.segOps = d.ops()
	d.segCPs = 0
	d.segCPNs = d.segCPNs[:0]
	d.segStart = time.Now()
}

// closeSegment ends the open segment at a kernel run and opens the next.
func (d *driver) closeSegment() {
	host := time.Since(d.segStart).Seconds()
	rate := d.ref.rate()
	scale := (d.segRate + rate) / 2 / refNominal
	d.refTime += host * scale
	if d.measuring {
		for _, ns := range d.segCPNs {
			d.cpMs = append(d.cpMs, float64(ns)/1e6*scale)
		}
		if d.segCPs == segmentCPs {
			d.rates = append(d.rates, float64(d.ops()-d.segOps)/(host*scale))
		}
	}
	d.openSegment(rate)
}

// takeRefTime closes the open segment and returns the reference seconds
// since the last call.
func (d *driver) takeRefTime() float64 {
	d.closeSegment()
	t := d.refTime
	d.refTime = 0
	return t
}

// age fills every LUN sequentially and churns 1.2x their total size in
// random single-block overwrites, ending at a CP.
func (d *driver) age() {
	var total uint64
	for _, l := range d.luns {
		for lba := uint64(0); lba < l.Blocks(); lba++ {
			d.write(l, lba)
		}
		total += l.Blocks()
	}
	churn := int(1.2 * float64(total))
	for i := 0; i < churn; i++ {
		l := d.luns[d.rng.Intn(len(d.luns))]
		d.write(l, uint64(d.rng.Int63n(int64(l.Blocks()))))
	}
	d.flush()
}

func (d *driver) read(l *wafl.LUN, lba uint64) {
	if d.measuring {
		d.reads++
	}
	if d.tr == nil {
		d.s.Read(l, lba, 1)
		return
	}
	t0 := time.Now()
	d.s.Read(l, lba, 1)
	d.tr.op(spanRead, t0, d.ops())
}

func (d *driver) write(l *wafl.LUN, lba uint64) {
	if d.measuring {
		d.writes++
	}
	if d.tr == nil {
		d.s.Write(l, lba, 1)
	} else {
		t0 := time.Now()
		d.s.Write(l, lba, 1)
		d.tr.op(spanWrite, t0, d.ops())
	}
	d.writesSinceCP++
	if d.writesSinceCP == cpEveryWrites {
		d.cp()
		if d.afterCP != nil {
			d.afterCP()
		}
	}
}

// flush commits the partial CP at the end of a phase.
func (d *driver) flush() {
	if d.writesSinceCP > 0 {
		d.cp()
	}
}

func (d *driver) cp() {
	kind := spanCP
	if d.nextCPFirst {
		kind, d.nextCPFirst = spanFirstCP, false
	}
	var allocs0 uint64
	if d.tr != nil {
		allocs0 = d.tr.heapAllocs()
	}
	t0 := time.Now()
	d.s.CP()
	dt := time.Since(t0)
	d.writesSinceCP = 0
	if d.tr != nil {
		d.tr.cp(kind, t0, dt, d.tr.heapAllocs()-allocs0)
	}
	d.samplePeakHeap()
	d.segCPNs = append(d.segCPNs, dt)
	if d.segCPs++; d.segCPs == segmentCPs {
		d.closeSegment()
	}
}

func (d *driver) samplePeakHeap() {
	metrics.Read(d.heapSample)
	if v := d.heapSample[0].Value.Uint64(); v > d.peakHeap {
		d.peakHeap = v
	}
}

func (d *driver) createSnapshot(l *wafl.LUN, name string) {
	d.snapOps++
	t0 := time.Now()
	if _, err := d.s.CreateSnapshot(l, name); err != nil {
		d.failed++
		return
	}
	d.tr.call(spanSnapCreate, t0)
}

func (d *driver) deleteSnapshot(l *wafl.LUN, name string) {
	d.snapOps++
	t0 := time.Now()
	if _, err := d.s.DeleteSnapshot(l, name); err != nil {
		d.failed++
		return
	}
	d.tr.call(spanSnapDelete, t0)
}

func (d *driver) remount(useTopAA bool) wafl.MountStats {
	t0 := time.Now()
	ms := d.s.Agg.Remount(useTopAA)
	if useTopAA {
		d.seeded = append(d.seeded, ms)
		d.tr.call(spanRemountTopAA, t0)
	} else {
		d.tr.call(spanRemountWalk, t0)
	}
	return ms
}

func (d *driver) backgroundFill() {
	t0 := time.Now()
	d.s.Agg.CompleteBackgroundFill()
	d.tr.call(spanBackgroundFill, t0)
}
