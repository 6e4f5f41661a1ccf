package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"waflfs/internal/device"
	"waflfs/internal/raid"
	"waflfs/internal/wafl"
)

// roundResult is one round: a fresh set-up from the seed, the measured
// phase, and the checks on the final state. Times are in reference seconds
// (see ref.go) unless named host.
type roundResult struct {
	traced                    bool
	setupS, measuredS         float64
	setupHostS, measuredHostS float64
	attempted, failed         uint64
	cpMs                      []float64
	rates                     []float64 // ops/s of each full segmentCPs-CP segment
	// scale converts the round's host times to reference time where no
	// segment is at hand (the traced spans): the median kernel rate of the
	// round over refNominal (see ref.go).
	scale    float64
	peakHeap uint64 // bytes, sampled at every CP boundary
	model    modeled
	err      error // a failed check or a panic
}

// modeled holds every modeled-clock number of a round. It depends only on
// the seed, so all rounds of a run must agree on it exactly.
type modeled struct {
	CPUUsPerOp    float64
	DeviceUsPerOp float64
	WriteAmp      float64
	AggPick       float64
	VolPick       float64
	FirstCPReads  float64
	Layer         layerCounts
}

// layerCounts are the per-layer counters, read from the program's public
// API at the boundaries of the measured phase.
type layerCounts struct {
	CPs                uint64
	MetafilePagesPerCP float64
	BlocksPerTetris    float64
	FullStripeFrac     float64
	ParityReadBlocks   uint64
	BusyUsPerCP        float64
	FTLRelocated       uint64
	FTLErases          uint64
	HeapOpsPerCP       float64
	HBPSOpsPerCP       float64
	HBPSReplenishes    uint64
	ScanPerAlloc       float64
	TopAABlocksPerCP   float64
	MountCacheInserts  float64
	Fallbacks          int
	WatchdogChecks     uint64
	WatchdogViolations uint64
}

// mark is the cumulative counter state at a phase boundary.
type mark struct {
	c         wafl.Counters
	ftl       device.FTLStats
	raid      raid.Stats
	wdChecks  uint64
	wdViolate uint64
}

func takeMark(s *wafl.System) mark {
	m := mark{c: s.Counters(), ftl: s.FTLTotals()}
	for _, g := range s.Agg.Groups() {
		st := g.RAIDStats()
		m.raid.Tetrises += st.Tetrises
		m.raid.BlocksWritten += st.BlocksWritten
		m.raid.FullStripes += st.FullStripes
		m.raid.PartialStripes += st.PartialStripes
		m.raid.ParityReadBlocks += st.ParityReadBlocks
	}
	m.wdChecks, _ = s.Registry().Value("watchdog.checks")
	m.wdViolate, _ = s.Registry().Value("watchdog.violations")
	return m
}

// roundMode says what a round records besides the end-to-end numbers.
type roundMode int

const (
	plain    roundMode = iota
	profiled           // a CPU profile of the measured phase
	traced             // spans around every call and per-CP allocation counts
)

func runRound(w workload, cfg config, mode roundMode, ref *refKernel, tr *tracer) (rr roundResult) {
	rr.traced = mode == traced
	var d *driver
	defer func() {
		if p := recover(); p != nil {
			if mode == profiled {
				pprof.StopCPUProfile()
			}
			rr.err = fmt.Errorf("round aborted: %v", p)
			if d != nil {
				rr.attempted = d.ops()
			}
			rr.attempted = max(rr.attempted, 1)
			rr.failed = rr.attempted
		}
	}()
	runtime.GC()
	d = newDriver(cfg.seed, ref)
	t0 := time.Now()
	w.build(d, cfg.seed, cfg.workers)
	rr.setupHostS = time.Since(t0).Seconds()
	rr.setupS = d.takeRefTime()

	if mode == traced {
		d.tr = tr
		tr.beginRound()
	}
	m0 := takeMark(d.s)
	d.s.ResetMetrics()
	d.measuring = true
	var prof bytes.Buffer
	if mode == profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			rr.err = err
			return rr
		}
	}
	t1 := time.Now()
	w.measure(d)
	rr.measuredHostS = time.Since(t1).Seconds()
	d.tr.call(spanRound, t1)
	rr.measuredS = d.takeRefTime()
	if mode == profiled {
		pprof.StopCPUProfile()
		if err := tr.prof.addProfile(prof.Bytes()); err != nil {
			rr.err = err
		}
	}
	d.measuring = false
	rr.scale = median(d.refRates) / refNominal
	if mode == traced {
		tr.scales = append(tr.scales, rr.scale)
	}
	m1 := takeMark(d.s)
	rr.attempted = d.ops()
	rr.failed = d.failed
	rr.cpMs = d.cpMs
	rr.rates = d.rates
	if err := check(d, m0, m1); err != nil {
		// A failed check counts every op of the round as failed.
		rr.err = errors.Join(rr.err, err)
		rr.failed = rr.attempted
	}
	if w.probeMount {
		d.remount(true)
	}
	rr.peakHeap = d.peakHeap
	rr.model = modeledOf(d, m0, m1)
	return rr
}

// check verifies the round's final state. None of these is weakened to
// pass: any failure fails the run.
func check(d *driver, m0, m1 mark) error {
	var errs []error
	if got, want := m1.c.Ops-m0.c.Ops, d.reads+d.writes; got != want {
		errs = append(errs, fmt.Errorf("Counters.Ops advanced %d, generator issued %d reads+writes", got, want))
	}
	if r := d.s.Agg.Scrub(); !r.Clean() {
		errs = append(errs, fmt.Errorf("%s", r))
	}
	for _, v := range d.s.Agg.Vols() {
		if err := v.CheckRefcounts(); err != nil {
			errs = append(errs, fmt.Errorf("%s refcounts: %w", v.Name, err))
		}
	}
	if m1.wdViolate != 0 {
		errs = append(errs, fmt.Errorf("%d watchdog violations", m1.wdViolate))
	}
	if d.failed != 0 {
		errs = append(errs, fmt.Errorf("%d calls returned an error", d.failed))
	}
	return errors.Join(errs...)
}

func modeledOf(d *driver, m0, m1 mark) modeled {
	s := d.s
	c := m1.c.Sub(m0.c)
	var mo modeled
	mo.CPUUsPerOp = float64(c.CPUPerOp()) / 1e3
	mo.DeviceUsPerOp = ratio(float64(c.DeviceBusy)/1e3, float64(c.Ops))
	// An HDD has no FTL: each host block is written to the media once.
	mo.WriteAmp = 1
	if dh := m1.ftl.HostWrites - m0.ftl.HostWrites; dh > 0 {
		mo.WriteAmp = float64(m1.ftl.NANDWrites-m0.ftl.NANDWrites) / float64(dh)
	}
	var heapOps uint64
	for _, g := range s.Agg.Groups() {
		gm := g.Metrics()
		mo.AggPick += gm.PickedScoreFraction
		heapOps += gm.CacheOps
	}
	mo.AggPick /= float64(len(s.Agg.Groups()))
	var hbpsOps, scanned, allocated uint64
	for _, v := range s.Agg.Vols() {
		vm := v.Metrics()
		mo.VolPick += vm.PickedScoreFraction
		hbpsOps += vm.CacheOps
		mo.Layer.HBPSReplenishes += vm.Replenishes
		scanned += vm.ScannedBlocks
		allocated += vm.AllocatedBlocks
	}
	mo.VolPick /= float64(len(s.Agg.Vols()))
	for _, ms := range d.seeded {
		mo.FirstCPReads += float64(ms.TopAABlockReads + ms.BitmapPagesRead)
		mo.Layer.MountCacheInserts += float64(ms.CacheInserts)
		mo.Layer.Fallbacks += ms.Fallbacks
	}
	if n := float64(len(d.seeded)); n > 0 {
		mo.FirstCPReads /= n
		mo.Layer.MountCacheInserts /= n
	}

	l := &mo.Layer
	l.CPs = c.CPs
	cps := float64(c.CPs)
	l.MetafilePagesPerCP = ratio(float64(c.MetafilePages), cps)
	tetrises := m1.raid.Tetrises - m0.raid.Tetrises
	l.BlocksPerTetris = ratio(float64(m1.raid.BlocksWritten-m0.raid.BlocksWritten), float64(tetrises))
	full := m1.raid.FullStripes - m0.raid.FullStripes
	partial := m1.raid.PartialStripes - m0.raid.PartialStripes
	l.FullStripeFrac = ratio(float64(full), float64(full+partial))
	l.ParityReadBlocks = m1.raid.ParityReadBlocks - m0.raid.ParityReadBlocks
	l.BusyUsPerCP = ratio(float64(c.DeviceBusy)/1e3, cps)
	l.FTLRelocated = m1.ftl.Relocated - m0.ftl.Relocated
	l.FTLErases = m1.ftl.Erases - m0.ftl.Erases
	l.HeapOpsPerCP = ratio(float64(heapOps), cps)
	l.HBPSOpsPerCP = ratio(float64(hbpsOps), cps)
	l.ScanPerAlloc = ratio(float64(scanned), float64(allocated))
	l.TopAABlocksPerCP = ratio(float64(c.TopAABlocks), cps)
	l.WatchdogChecks = m1.wdChecks - m0.wdChecks
	l.WatchdogViolations = m1.wdViolate - m0.wdViolate
	return mo
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runResult is every round of one run.
type runResult struct {
	rounds []roundResult
	errors []error
	tr     *tracer // traced runs only
}

// run repeats rounds until the measured phases have lasted cfg.seconds of
// host time (and, untraced, until there are minRounds set-ups and minCPs CP
// samples),
// alternating profiled and traced rounds when cfg.trace is set.
func run(w workload, cfg config) *runResult {
	res := &runResult{}
	ref, err := newRefKernel()
	if err != nil {
		res.errors = append(res.errors, err)
		return res
	}
	defer ref.close()
	if cfg.trace {
		res.tr = newTracer()
	}
	start := time.Now()
	var measured float64
	cps := 0
	for i := 0; ; i++ {
		mode := plain
		if cfg.trace {
			mode = []roundMode{profiled, traced}[i%2]
		}
		r0 := time.Now()
		rr := runRound(w, cfg, mode, ref, res.tr)
		last := time.Since(r0)
		res.rounds = append(res.rounds, rr)
		if rr.err != nil {
			res.errors = append(res.errors, rr.err)
			break
		}
		if rr.model != res.rounds[0].model {
			res.errors = append(res.errors, fmt.Errorf("round %d modeled metrics differ from round 0: %+v vs %+v", i, rr.model, res.rounds[0].model))
			break
		}
		measured += rr.measuredHostS
		cps += len(rr.cpMs)
		enough := measured >= cfg.seconds && len(res.rounds) >= minRounds && cps >= minCPs
		if cfg.trace {
			enough = measured >= cfg.seconds && len(res.rounds) >= 2
		}
		if enough || time.Since(start)+last > wallBudget*time.Second {
			break
		}
	}
	if res.tr != nil {
		path := filepath.Join(spansDir, w.name+".csv.gz")
		if err := res.tr.write(path); err != nil {
			res.errors = append(res.errors, fmt.Errorf("writing spans: %w", err))
		}
	}
	return res
}

func (r *runResult) correct() bool { return len(r.errors) == 0 && r.failed() == 0 }

func (r *runResult) attempted() uint64 {
	var n uint64
	for _, rr := range r.rounds {
		n += rr.attempted
	}
	return max(n, 1)
}

func (r *runResult) failed() uint64 {
	var n uint64
	for _, rr := range r.rounds {
		n += rr.failed
	}
	return n
}
