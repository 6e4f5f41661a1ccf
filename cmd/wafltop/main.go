// Command wafltop is a terminal viewer for a running waflbench's live
// introspection endpoints (-metrics-addr). It polls /debug/timeseries,
// /debug/picks, /debug/slo, /debug/optrace, and /debug/control and renders,
// per experiment arm: the per-CP allocation-quality deciles from the
// embedded time-series store, the pick-provenance reason mix (cache hit /
// refill / fallback rates), the CP-phase modeled-clock breakdown with
// historical sparklines drawn from the series rings, the watchdog counters,
// the SLO portfolio (per-instance alert state, burn rates, budget used, and
// a slow-burn sparkline), the slowest sampled ops with their per-stage
// latency breakdown bars (base CPU / device / metafile / scan / cache), and
// the closed-loop controller (per-policy state machine, knob values with
// their actuation history sparkline, and the newest decision records with
// full provenance).
//
// Usage:
//
//	wafltop [-addr host:port] [-interval 2s] [-count N] [-snapshot] [-json]
//
// -snapshot fetches once, prints one report, and exits — nonzero when the
// store holds no nonzero per-CP series yet, when any SLO instance is in
// the page state, or when any controller policy is mid-flap (the CI
// smoke-test mode). -json fetches once and emits the raw endpoint documents
// as one combined JSON object
// {"timeseries":…,"picks":…,"slo":…,"optrace":…,"control":…} with the same
// exit semantics, for scripting. Without either, wafltop clears the screen
// and refreshes every -interval until interrupted (or N refreshes with
// -count). A bench built before the SLO engine, op tracer, or controller
// simply has no /debug/slo, /debug/optrace, or /debug/control endpoint;
// those panels (and JSON keys) are skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"waflfs/internal/control"
	"waflfs/internal/obs/slo"
)

type point struct {
	CPFirst uint64  `json:"cp_first"`
	CPLast  uint64  `json:"cp_last"`
	AtNS    int64   `json:"at_ns"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Sum     float64 `json:"sum"`
	Count   uint64  `json:"count"`
}

func (p point) avg() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

type tsDoc struct {
	Capacity int `json:"capacity"`
	Series   []struct {
		Name   string  `json:"name"`
		Points []point `json:"points"`
	} `json:"series"`
}

// The /debug/slo and /debug/control documents decode into the engines'
// own status types.
type (
	sloDoc = slo.Doc
	ctlDoc = control.Doc
)

type otSpan struct {
	Name     string   `json:"name"`
	DurNS    uint64   `json:"dur_ns"`
	Children []otSpan `json:"children,omitempty"`
}

type otDoc struct {
	Sampled     uint64 `json:"sampled"`
	SlowSampled uint64 `json:"slow_sampled"`
	Dropped     uint64 `json:"dropped"`
	Spaces      []struct {
		Space  string `json:"space"`
		Traces []struct {
			ID     uint64   `json:"id"`
			Space  string   `json:"space"`
			Kind   string   `json:"kind"`
			CP     uint64   `json:"cp"`
			LatNS  uint64   `json:"lat_ns"`
			Blocks uint64   `json:"blocks"`
			Slow   bool     `json:"slow"`
			Spans  []otSpan `json:"spans"`
		} `json:"traces"`
	} `json:"spaces"`
}

type picksDoc struct {
	Spaces []struct {
		Space    string            `json:"space"`
		Recorded uint64            `json:"recorded"`
		Dropped  uint64            `json:"dropped"`
		Reasons  map[string]uint64 `json:"reasons"`
	} `json:"spaces"`
}

// fetchRaw returns an endpoint's body bytes, so one fetch can feed both the
// typed panels and the -json passthrough document.
func fetchRaw(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// last returns the newest point of a series, if any.
func last(pts []point) (point, bool) {
	if len(pts) == 0 {
		return point{}, false
	}
	return pts[len(pts)-1], true
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders the newest `width` per-point averages of a series ring as a
// unicode sparkline, scaled to the shown window's own min..max. Flat series
// render as a low bar; an empty series renders empty.
func spark(pts []point, width int) string {
	if len(pts) == 0 {
		return ""
	}
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.avg()
		lo = math.Min(lo, vals[i])
		hi = math.Max(hi, vals[i])
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// report renders one refresh. It returns the number of series that carry at
// least one nonzero sample (the -snapshot liveness criterion), the number
// of SLO instances currently in the page state, and the number of
// controller policies mid-flap (the -snapshot health criteria).
func report(w *strings.Builder, ts tsDoc, pk picksDoc, sl sloDoc, haveSLO bool, ot otDoc, haveOT bool, ct ctlDoc, haveCTL bool) (nonzero, paging, flapping int) {
	bySeries := make(map[string][]point, len(ts.Series))
	maxCP := uint64(0)
	for _, se := range ts.Series {
		bySeries[se.Name] = se.Points
		for _, p := range se.Points {
			if p.Sum != 0 {
				nonzero++
				break
			}
		}
		if p, ok := last(se.Points); ok && p.CPLast > maxCP {
			maxCP = p.CPLast
		}
	}

	// Arms are the prefixes of the canonical per-system clock series.
	var arms []string
	for name := range bySeries {
		if strings.HasSuffix(name, ".wafl.cps") {
			arms = append(arms, strings.TrimSuffix(name, ".wafl.cps"))
		}
	}
	sort.Strings(arms)

	fmt.Fprintf(w, "wafltop — %d series (cap %d/series), %d arms, newest CP %d\n\n",
		len(ts.Series), ts.Capacity, len(arms), maxCP)

	// CP-phase modeled-clock breakdown per arm, with the CPU-clock history
	// sparkline drawn straight from the series ring.
	fmt.Fprintf(w, "%-28s %8s %12s %12s %10s %9s %9s  %s\n",
		"arm", "cps", "cpu_ms", "dev_ms", "cp_pages", "wd_checks", "wd_viol", "cpu trend")
	for _, arm := range arms {
		val := func(suffix string) float64 {
			p, ok := last(bySeries[arm+suffix])
			if !ok {
				return 0
			}
			return p.avg()
		}
		wdv := val(".watchdog.violations")
		mark := ""
		if wdv > 0 {
			mark = "  <-- VIOLATIONS"
		}
		fmt.Fprintf(w, "%-28s %8.0f %12.2f %12.2f %10.0f %9.0f %9.0f  %s%s\n",
			arm,
			val(".wafl.cps"),
			val(".wafl.cpu_ns")/1e6,
			val(".cp.device_busy_ns")/1e6,
			val(".cp.metafile_pages_agg")+val(".cp.metafile_pages_vols"),
			val(".watchdog.checks"), wdv,
			spark(bySeries[arm+".wafl.cpu_ns"], 16), mark)
	}

	// Allocation-quality deciles from the fragscan series.
	var fragSpaces []string
	for name := range bySeries {
		if strings.HasSuffix(name, ".frag.p50") {
			fragSpaces = append(fragSpaces, strings.TrimSuffix(name, ".frag.p50"))
		}
	}
	sort.Strings(fragSpaces)
	if len(fragSpaces) > 0 {
		fmt.Fprintf(w, "\n%-28s %8s %8s %8s %10s %12s  %s\n",
			"space (AA free-frac)", "p10", "p50", "p90", "free_frac", "picked_free", "p50 trend")
		for _, sp := range fragSpaces {
			val := func(suffix string) float64 {
				p, ok := last(bySeries[sp+suffix])
				if !ok {
					return 0
				}
				return p.avg()
			}
			fmt.Fprintf(w, "%-28s %8.3f %8.3f %8.3f %10.3f %12.3f  %s\n",
				sp, val(".frag.p10"), val(".frag.p50"), val(".frag.p90"),
				val(".frag.free_frac"), val(".frag.picked_free_frac"),
				spark(bySeries[sp+".frag.p50"], 16))
		}
	}

	// Pick provenance: reason mix per space, busiest first.
	sort.Slice(pk.Spaces, func(i, j int) bool {
		if pk.Spaces[i].Recorded != pk.Spaces[j].Recorded {
			return pk.Spaces[i].Recorded > pk.Spaces[j].Recorded
		}
		return pk.Spaces[i].Space < pk.Spaces[j].Space
	})
	if len(pk.Spaces) > 0 {
		fmt.Fprintf(w, "\n%-28s %10s %9s %9s %9s %9s %9s\n",
			"picks by space", "recorded", "hit%", "shard%", "refill%", "fallback%", "dropped")
		shown := pk.Spaces
		if len(shown) > 12 {
			shown = shown[:12]
		}
		for _, sp := range shown {
			tot := float64(sp.Recorded)
			if tot == 0 {
				continue
			}
			pct := func(keys ...string) float64 {
				var n uint64
				for _, k := range keys {
					n += sp.Reasons[k]
				}
				return 100 * float64(n) / tot
			}
			fmt.Fprintf(w, "%-28s %10d %8.1f%% %8.1f%% %8.1f%% %8.1f%% %9d\n",
				sp.Space, sp.Recorded,
				pct("heap_top", "hbps_bin"), pct("shard_local"),
				pct("refill"), pct("bitmap_fallback"), sp.Dropped)
		}
		if len(pk.Spaces) > len(shown) {
			fmt.Fprintf(w, "  … and %d more spaces\n", len(pk.Spaces)-len(shown))
		}
	}

	// SLO portfolio: alert totals, then per-instance state with the
	// slow-window burn-rate history (the engine writes its evaluation
	// stream back into the same tsdb, so the sparkline comes for free).
	if haveSLO && sl.Totals.Instances > 0 {
		t := sl.Totals
		fmt.Fprintf(w, "\nSLO portfolio — %d instances / %d systems, %d evaluations, %d warns, %d pages (active: %d warn, %d page)\n",
			t.Instances, t.Systems, t.Evaluations, t.Warns, t.Pages, t.ActiveWarns, t.ActivePages)
		type row struct {
			sys string
			in  slo.InstanceStatus
		}
		var rows []row
		for _, sys := range sl.Systems {
			for _, in := range sys.Instances {
				if in.State == "page" {
					paging++
				}
				rows = append(rows, row{sys.System, in})
			}
		}
		rank := func(st string) int {
			switch st {
			case "page":
				return 0
			case "warn":
				return 1
			}
			return 2
		}
		sort.Slice(rows, func(i, j int) bool {
			if a, b := rank(rows[i].in.State), rank(rows[j].in.State); a != b {
				return a < b
			}
			if rows[i].sys != rows[j].sys {
				return rows[i].sys < rows[j].sys
			}
			return rows[i].in.Name < rows[j].in.Name
		})
		fmt.Fprintf(w, "%-42s %-9s %-6s %9s %9s %8s  %s\n",
			"system/instance", "kind", "state", "burn_fast", "burn_slow", "budget", "slow-burn trend")
		shown := rows
		if len(shown) > 14 {
			shown = shown[:14]
		}
		for _, r := range shown {
			mark := ""
			if r.in.State == "page" {
				mark = "  <-- PAGING"
			}
			fmt.Fprintf(w, "%-42s %-9s %-6s %9.2f %9.2f %8.3f  %s%s\n",
				r.sys+"/"+r.in.Name, r.in.Kind, r.in.State, r.in.BurnFast, r.in.BurnSlow, r.in.BudgetUsed,
				spark(bySeries[r.sys+".slo."+r.in.Name+".burn_slow"], 16), mark)
		}
		if len(rows) > len(shown) {
			fmt.Fprintf(w, "  … and %d more instances (all %s)\n", len(rows)-len(shown), shown[len(shown)-1].in.State)
		}
	}

	// Slowest sampled ops: every surviving trace ranked by modeled latency,
	// with a per-stage breakdown bar built from the top-level span durations
	// (the spans sum exactly to lat_ns, so the bar is the whole story).
	if haveOT && ot.Sampled > 0 {
		type otRow struct {
			id            uint64
			space, kind   string
			cp, lat, blks uint64
			slow          bool
			stages        map[string]uint64
		}
		var rows []otRow
		for _, sp := range ot.Spaces {
			for _, t := range sp.Traces {
				st := make(map[string]uint64, len(t.Spans))
				for _, s := range t.Spans {
					st[s.Name] += s.DurNS
				}
				rows = append(rows, otRow{t.ID, t.Space, t.Kind, t.CP, t.LatNS, t.Blocks, t.Slow, st})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].lat != rows[j].lat {
				return rows[i].lat > rows[j].lat
			}
			return rows[i].id < rows[j].id
		})
		fmt.Fprintf(w, "\nslowest sampled ops — %d sampled (%d slow-gated, %d evicted)   [b=base_cpu d=device m=metafile s=scan c=cache]\n",
			ot.Sampled, ot.SlowSampled, ot.Dropped)
		fmt.Fprintf(w, "%-18s %-28s %-5s %6s %9s %7s  %s\n",
			"trace", "volume", "kind", "cp", "lat_ms", "blocks", "stage breakdown")
		shown := rows
		if len(shown) > 8 {
			shown = shown[:8]
		}
		for _, r := range shown {
			mark := ""
			if r.slow {
				mark = "  <-- SLOW"
			}
			fmt.Fprintf(w, "0x%016x %-28s %-5s %6d %9.2f %7d  |%s|%s\n",
				r.id, r.space, r.kind, r.cp, float64(r.lat)/1e6, r.blks,
				stageBar(r.stages, r.lat, 24), mark)
		}
		if len(rows) > len(shown) {
			fmt.Fprintf(w, "  … and %d more sampled ops in the rings\n", len(rows)-len(shown))
		}
	}

	// Closed-loop controller: per-policy state machine, knob values with the
	// knob-history sparkline (the engine writes knob values back into the
	// tsdb every evaluation, so the trend comes from the same rings), and the
	// newest decision records with full provenance.
	if haveCTL && ct.Totals.Instances > 0 {
		t := ct.Totals
		fmt.Fprintf(w, "\ncontrol plane — %d policies / %d systems, %d evaluations, %d actuations, %d suppressed (active: %d armed, %d acted)\n",
			t.Instances, t.Systems, t.Evaluations, t.Actuations, t.Suppressed, t.ActiveArmed, t.ActiveActed)
		type crow struct {
			sys string
			in  control.InstanceStatus
		}
		var rows []crow
		for _, sys := range ct.Systems {
			for _, in := range sys.Instances {
				if in.Flapping {
					flapping++
				}
				rows = append(rows, crow{sys.System, in})
			}
		}
		rank := func(st string) int {
			switch st {
			case "acted":
				return 0
			case "armed":
				return 1
			}
			return 2
		}
		sort.Slice(rows, func(i, j int) bool {
			if a, b := rank(rows[i].in.State), rank(rows[j].in.State); a != b {
				return a < b
			}
			if rows[i].sys != rows[j].sys {
				return rows[i].sys < rows[j].sys
			}
			return rows[i].in.Name < rows[j].in.Name
		})
		fmt.Fprintf(w, "%-42s %-34s %-6s %6s %10s\n",
			"system/policy", "signal", "state", "streak", "value")
		shown := rows
		if len(shown) > 14 {
			shown = shown[:14]
		}
		for _, r := range shown {
			mark := ""
			if r.in.Flapping {
				mark = "  <-- FLAPPING"
			}
			fmt.Fprintf(w, "%-42s %-34s %-6s %6d %10.2f%s\n",
				r.sys+"/"+r.in.Name, r.in.Signal, r.in.State, r.in.Streak, r.in.Value, mark)
		}
		if len(rows) > len(shown) {
			fmt.Fprintf(w, "  … and %d more policies (all %s)\n", len(rows)-len(shown), shown[len(shown)-1].in.State)
		}

		// Knob values per system, with the actuation-history sparkline drawn
		// from the engine's "<sys>.control.knob.<name>" series.
		fmt.Fprintf(w, "%-42s %12s  %s\n", "system/knob", "value", "knob trend")
		knobRows := 0
	knobLoop:
		for _, sys := range ct.Systems {
			for _, k := range sys.Knobs {
				if knobRows >= 10 {
					fmt.Fprintln(w, "  … more knobs not shown")
					break knobLoop
				}
				fmt.Fprintf(w, "%-42s %12.0f  %s\n",
					sys.System+"/"+k.Name, k.Value,
					spark(bySeries[sys.System+".control.knob."+k.Name], 16))
				knobRows++
			}
		}

		// Newest decision records across systems, fired decisions and
		// suppressions alike — the full provenance chain in one line each.
		type rrow struct {
			sys  string
			rec  int // index into the system's record slice
			cp   uint64
			line string
		}
		var recs []rrow
		for _, sys := range ct.Systems {
			for i, r := range sys.Records {
				verdict := fmt.Sprintf("%s %.0f -> %.0f", r.Knob, r.Old, r.New)
				if !r.Fired {
					verdict = "suppressed:" + r.Reason
				}
				recs = append(recs, rrow{sys.System, i, r.CP,
					fmt.Sprintf("  cp %-6d %-28s %-14s %s = %.3f — %s",
						r.CP, sys.System, r.Instance, r.Signal, r.Value, verdict)})
			}
		}
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].cp != recs[j].cp {
				return recs[i].cp > recs[j].cp
			}
			if recs[i].sys != recs[j].sys {
				return recs[i].sys < recs[j].sys
			}
			return recs[i].rec > recs[j].rec
		})
		if len(recs) > 0 {
			fmt.Fprintln(w, "newest decisions:")
			shown := recs
			if len(shown) > 6 {
				shown = shown[:6]
			}
			for _, r := range shown {
				fmt.Fprintln(w, r.line)
			}
			if len(recs) > len(shown) {
				fmt.Fprintf(w, "  … and %d more records in the rings\n", len(recs)-len(shown))
			}
		}
	}
	return nonzero, paging, flapping
}

// stageBar renders a width-character bar whose segments are the attribution
// stages' shares of the op latency, each drawn with the stage's letter.
func stageBar(stages map[string]uint64, lat uint64, width int) string {
	if lat == 0 {
		return strings.Repeat(" ", width)
	}
	order := []struct {
		name string
		ch   byte
	}{{"base_cpu", 'b'}, {"device", 'd'}, {"metafile", 'm'}, {"scan", 's'}, {"cache", 'c'}}
	b := make([]byte, 0, width)
	for _, s := range order {
		n := int(float64(stages[s.name])/float64(lat)*float64(width) + 0.5)
		for i := 0; i < n && len(b) < width; i++ {
			b = append(b, s.ch)
		}
	}
	for len(b) < width {
		b = append(b, ' ')
	}
	return string(b)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9190", "waflbench -metrics-addr to poll")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	count := flag.Int("count", 0, "number of refreshes before exiting (0 = until interrupted)")
	snapshot := flag.Bool("snapshot", false,
		"fetch once, print one report, and exit nonzero if no per-CP series carries data yet, any SLO instance is paging, or any controller policy is flapping")
	jsonOut := flag.Bool("json", false,
		"fetch once, emit the raw endpoint documents as one combined JSON object on stdout, and exit with -snapshot's status semantics")
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}

	for i := 0; ; i++ {
		var ts tsDoc
		var pk picksDoc
		var sl sloDoc
		var ot otDoc
		tsRaw, err := fetchRaw(client, base+"/debug/timeseries")
		if err == nil {
			err = json.Unmarshal(tsRaw, &ts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pkRaw, err := fetchRaw(client, base+"/debug/picks")
		if err == nil {
			err = json.Unmarshal(pkRaw, &pk)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Benches built before the SLO engine, op tracer, or controller
		// have no /debug/slo, /debug/optrace, or /debug/control; skip
		// those panels rather than failing the whole viewer.
		slRaw, slErr := fetchRaw(client, base+"/debug/slo")
		haveSLO := slErr == nil && json.Unmarshal(slRaw, &sl) == nil
		otRaw, otErr := fetchRaw(client, base+"/debug/optrace")
		haveOT := otErr == nil && json.Unmarshal(otRaw, &ot) == nil
		var ct ctlDoc
		ctRaw, ctErr := fetchRaw(client, base+"/debug/control")
		haveCTL := ctErr == nil && json.Unmarshal(ctRaw, &ct) == nil
		var b strings.Builder
		nonzero, paging, flapping := report(&b, ts, pk, sl, haveSLO, ot, haveOT, ct, haveCTL)
		if *snapshot || *jsonOut {
			if *jsonOut {
				doc := map[string]json.RawMessage{
					"timeseries": tsRaw,
					"picks":      pkRaw,
				}
				if haveSLO {
					doc["slo"] = slRaw
				}
				if haveOT {
					doc["optrace"] = otRaw
				}
				if haveCTL {
					doc["control"] = ctRaw
				}
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(doc); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				fmt.Print(b.String())
			}
			if nonzero == 0 {
				fmt.Fprintln(os.Stderr, "wafltop: no nonzero per-CP series yet")
				os.Exit(1)
			}
			if paging > 0 {
				fmt.Fprintf(os.Stderr, "wafltop: %d SLO instance(s) in page state\n", paging)
				os.Exit(1)
			}
			if flapping > 0 {
				fmt.Fprintf(os.Stderr, "wafltop: %d controller polic(ies) mid-flap\n", flapping)
				os.Exit(1)
			}
			return
		}
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		fmt.Print(b.String())
		fmt.Printf("\n[%s  refresh %v  ctrl-c to quit]\n", time.Now().Format("15:04:05"), *interval)
		if *count > 0 && i+1 >= *count {
			return
		}
		time.Sleep(*interval)
	}
}
