package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func testRound(t *testing.T, name string, seed int64, workers int) roundResult {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	ref, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	rr := runRound(w, config{seed: seed, workers: workers}, plain, ref, nil)
	if rr.err != nil {
		t.Fatalf("%s seed %d workers %d: %v", name, seed, workers, rr.err)
	}
	return rr
}

// Every modeled number is a function of the seed alone: the worker count
// and a second run change none of them.
func TestModeledMetricsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := testRound(t, w.name, 7, 1)
			b := testRound(t, w.name, 7, 2)
			c := testRound(t, w.name, 7, 2)
			if a.model != b.model {
				t.Errorf("Workers=1 vs Workers=2:\n%+v\n%+v", a.model, b.model)
			}
			if b.model != c.model {
				t.Errorf("two runs of one seed:\n%+v\n%+v", b.model, c.model)
			}
		})
	}
}

// The observability sinks only observe: oltp-observed's modeled numbers
// equal oltp-aged's at the same seed. Only the watchdog check count, which
// exists only where the watchdogs are armed, differs.
func TestObservedModeledEqualsAged(t *testing.T) {
	aged := testRound(t, "oltp-aged", 3, 2).model
	observed := testRound(t, "oltp-observed", 3, 2).model
	if observed.Layer.WatchdogChecks == 0 {
		t.Fatal("oltp-observed ran no watchdog checks: the sinks are not armed")
	}
	observed.Layer.WatchdogChecks = aged.Layer.WatchdogChecks
	if aged != observed {
		t.Errorf("modeled metrics differ:\naged     %+v\nobserved %+v", aged, observed)
	}
}

// A runtime map access inside the FlexVol refcount code is self time of
// the wafl layer, and counts as map work; the reference kernel counts
// nowhere.
func TestProfileChargesMapAccessToCaller(t *testing.T) {
	p := newProfSplit()
	p.add([]string{
		"runtime.mapaccess2_fast64",
		"waflfs/internal/wafl.(*FlexVol).ref",
		"waflfs/internal/wafl.(*System).CreateSnapshot",
		"main.(*driver).createSnapshot",
		"main.main",
	}, 3)
	p.add([]string{"sort.insertionSort_func", "waflfs/internal/obs/fragscan.deciles", "waflfs/internal/wafl.(*Aggregate).FragScan"}, 1)
	p.add([]string{"runtime.gcBgMarkWorker"}, 1)
	p.add([]string{"math/rand.(*Rand).Int63", "main.measureOLTP"}, 1)
	p.add([]string{"slices.Sort[...]", "main.(*refKernel).rate", "main.(*driver).closeSegment"}, 5)
	if got := p.frac(p.layer["wafl"]); got != 0.5 {
		t.Errorf("wafl share %v, want 0.5", got)
	}
	if got := p.frac(p.mapWork); got != 0.5 {
		t.Errorf("map share %v, want 0.5", got)
	}
	for layer, want := range map[string]int64{"obs_fragscan": 1, "runtime": 1, "bench": 1} {
		if p.layer[layer] != want {
			t.Errorf("%s samples %d, want %d", layer, p.layer[layer], want)
		}
	}
	if p.sorting != 1 {
		t.Errorf("sort samples %d, want 1", p.sorting)
	}
}

var spinSink uint64

// The decoder reads the profiles runtime/pprof writes.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profile unavailable:", err)
	}
	m := make(map[uint64]uint64)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := uint64(0); i < 1<<12; i++ {
			m[i*0x9e3779b97f4a7c15] += i
			spinSink += m[(i+1)*0x9e3779b97f4a7c15]
		}
	}
	pprof.StopCPUProfile()
	p := newProfSplit()
	if err := p.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples decoded")
	}
	if p.mapWork == 0 {
		t.Errorf("a map-bound loop shows no map work in %d samples", p.total)
	}
}

// The metrics the program prints are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("workloads %v, BENCHMARK.json %v", have, names)
	}
	tr := newTracer()
	tr.scales = []float64{1}
	r := &runResult{rounds: []roundResult{{scale: 1}}, tr: tr}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics(r), spec.EndToEnd)
	check("per_layer", layerMetrics(r), spec.PerLayer)
}
