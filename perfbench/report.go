package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// pick returns the rounds of one kind (traced or untraced).
func (r *runResult) pick(traced bool) []roundResult {
	var out []roundResult
	for _, rr := range r.rounds {
		if rr.traced == traced && rr.err == nil {
			out = append(out, rr)
		}
	}
	return out
}

// opsPerSecond returns each round's ops per reference second.
func opsPerSecond(rounds []roundResult) []float64 {
	var out []float64
	for _, rr := range rounds {
		out = append(out, ratio(float64(rr.attempted), rr.measuredS))
	}
	return out
}

// model is the modeled state every round agrees on (zero when none
// finished).
func (r *runResult) model() modeled {
	for _, rr := range r.rounds {
		if rr.err == nil {
			return rr.model
		}
	}
	return modeled{}
}

// endToEndMetrics are the untraced run's metrics: host time medians over
// rounds, and the modeled numbers every round agrees on.
func endToEndMetrics(r *runResult) []metric {
	rounds := r.pick(false)
	var setups, heaps, cpMs, rates []float64
	for _, rr := range rounds {
		setups = append(setups, rr.setupS)
		heaps = append(heaps, float64(rr.peakHeap)/(1<<20))
		cpMs = append(cpMs, rr.cpMs...)
		rates = append(rates, rr.rates...)
	}
	n := fmt.Sprintf("(median of %d rounds)", len(rounds))
	cpN := fmt.Sprintf("(n=%d CPs)", len(cpMs))
	mo := r.model()
	attempted := float64(r.attempted())
	okFrac := (attempted - float64(r.failed())) / attempted
	return []metric{
		{"setup_s", median(setups), "s", n},
		{"ops_per_s", median(rates), "ops/s", fmt.Sprintf("(median of %d %d-CP segments)", len(rates), segmentCPs)},
		{"cp_ms_p50", percentile(cpMs, 0.50), "ms", cpN},
		{"cp_ms_p90", percentile(cpMs, 0.90), "ms", cpN},
		{"peak_heap_mb", median(heaps), "MiB", n},
		{"ok_op_frac", okFrac, "ratio", fmt.Sprintf("(failed_op_frac=%g of %d ops)", 1-okFrac, r.attempted())},
		{"modeled_cpu_us_per_op", mo.CPUUsPerOp, "us", "(modeled)"},
		{"modeled_device_us_per_op", mo.DeviceUsPerOp, "us", "(modeled)"},
		{"write_amp", mo.WriteAmp, "ratio", "(modeled)"},
		{"agg_pick_free_frac", mo.AggPick, "ratio", "(modeled)"},
		{"vol_pick_free_frac", mo.VolPick, "ratio", "(modeled)"},
		{"first_cp_metafile_reads", mo.FirstCPReads, "blocks", "(modeled, per seeded remount)"},
	}
}

// layerMetrics are the traced run's per-layer metrics.
func layerMetrics(r *runResult) []metric {
	t := r.tr
	l := r.model().Layer
	p := t.prof
	traced := median(opsPerSecond(r.pick(true)))
	profiled := median(opsPerSecond(r.pick(false)))
	var allocs []float64
	for _, a := range t.allocs {
		allocs = append(allocs, float64(a))
	}
	ms := func(k spanKind) float64 { return median(t.durations(k)) / 1e6 }
	out := []metric{
		{"wafl.write_ns_p50", median(t.durations(spanWrite)), "ns", ""},
		{"wafl.read_ns_p50", median(t.durations(spanRead)), "ns", ""},
		{"wafl.read_ns_p99", percentile(t.durations(spanRead), 0.99), "ns", ""},
		{"wafl.cp_allocs", median(allocs), "count", "(heap objects per CP, median)"},
		{"wafl.snapshot_create_ms_p50", ms(spanSnapCreate), "ms", ""},
		{"wafl.snapshot_delete_ms_p50", ms(spanSnapDelete), "ms", ""},
		{"wafl.remount_topaa_ms", ms(spanRemountTopAA), "ms", "(median)"},
		{"wafl.remount_walk_ms", ms(spanRemountWalk), "ms", "(median)"},
		{"wafl.first_cp_ms", ms(spanFirstCP), "ms", "(median)"},
		{"wafl.background_fill_ms", ms(spanBackgroundFill), "ms", "(median)"},
	}
	for _, name := range profLayers {
		out = append(out, metric{"prof." + name + "_frac", p.frac(p.layer[name]), "ratio", ""})
	}
	prof := fmt.Sprintf("(of %d samples)", p.total)
	out = append(out,
		metric{"prof.mapaccess_frac", p.frac(p.mapWork), "ratio", prof},
		metric{"prof.sort_frac", p.frac(p.sorting), "ratio", prof},
		metric{"bitmap.metafile_pages_per_cp", l.MetafilePagesPerCP, "pages", ""},
		metric{"raid.blocks_per_tetris", l.BlocksPerTetris, "blocks", ""},
		metric{"raid.full_stripe_frac", l.FullStripeFrac, "ratio", ""},
		metric{"raid.parity_read_blocks", float64(l.ParityReadBlocks), "blocks", "(per round)"},
		metric{"device.busy_us_per_cp", l.BusyUsPerCP, "us", ""},
		metric{"device.ftl_relocated", float64(l.FTLRelocated), "pages", "(per round)"},
		metric{"device.ftl_erases", float64(l.FTLErases), "count", "(per round)"},
		metric{"heapcache.ops_per_cp", l.HeapOpsPerCP, "count", ""},
		metric{"hbps.ops_per_cp", l.HBPSOpsPerCP, "count", ""},
		metric{"hbps.replenishes", float64(l.HBPSReplenishes), "count", "(per round)"},
		metric{"hbps.scan_per_alloc", l.ScanPerAlloc, "ratio", ""},
		metric{"topaa.blocks_written_per_cp", l.TopAABlocksPerCP, "blocks", ""},
		metric{"topaa.mount_cache_inserts", l.MountCacheInserts, "count", "(per seeded remount)"},
		metric{"topaa.fallbacks", float64(l.Fallbacks), "count", "(per round)"},
		metric{"obs.watchdog_checks", float64(l.WatchdogChecks), "count", "(per round)"},
		metric{"obs.watchdog_violations", float64(l.WatchdogViolations), "count", "(per round)"},
		metric{"trace_overhead_frac", 1 - ratio(traced, profiled), "ratio", fmt.Sprintf("(traced %.0f vs profiled %.0f ops/s)", traced, profiled)},
	)
	return out
}
