package wafl

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/obs"
)

// goldenStreams runs a small fixed workload that reaches every CP commit
// step — AZCS checksum queues, an object pool fed by TierOut, delayed
// virtual frees under a budget that leaves carryover, and a snapshot whose
// deletion frees blocks — with the tracer and CSV recorder armed, and
// returns one SHA-256 digest per output stream.
func goldenStreams(t *testing.T, pipeline bool) map[string]string {
	t.Helper()
	tracer := obs.NewTracer()
	var csv strings.Builder
	rec := obs.NewCSVRecorder(&csv)
	tun := DefaultTunables()
	tun.Workers = 2 // FlushWall and the pipeline walls depend on the width
	tun.CPEveryOps = 1 << 30
	tun.DelayedVirtFrees = true
	tun.DelayedFreeBudgetPerCP = 300
	tun.Pipeline = pipeline
	tun.Obs = &ObsOptions{Name: "golden", Tracer: tracer, CSV: rec, Watchdogs: true}
	spec := GroupSpec{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 14,
		Media: aa.MediaSMR, ZoneBlocks: 4096, AZCS: true, StripesPerAA: 100}
	s := NewSystem([]GroupSpec{spec, spec},
		[]VolSpec{{Name: "va", Blocks: 2 * aa.RAIDAgnosticBlocks}, {Name: "vb", Blocks: 2 * aa.RAIDAgnosticBlocks}},
		tun, 17)
	s.Agg.AddObjectPool(PoolSpec{Blocks: aa.RAIDAgnosticBlocks})
	la := s.Agg.Vols()[0].CreateLUN("la", 12000)
	lb := s.Agg.Vols()[1].CreateLUN("lb", 12000)

	var cps []CPStats
	cp := func() { cps = append(cps, s.CP()) }
	drain := func() { cps = append(cps, s.Drain()) }
	rng := rand.New(rand.NewSource(3))
	churn := func(n int) {
		for i := 0; i < n; i++ {
			s.Write(la, uint64(rng.Intn(12000)), 1+rng.Intn(4))
			s.Write(lb, uint64(rng.Intn(12000)), 1)
			if s.pendingBlocks >= 1500 {
				cp()
			}
		}
		cp()
	}
	for lba := uint64(0); lba < 12000; lba += 8 {
		s.Write(la, lba, 8)
		s.Write(lb, lba, 8)
	}
	cp()
	churn(1200)
	drain()
	if got := s.TierOut(la, func(lba uint64) bool { return lba < 3000 }); got == 0 {
		t.Fatal("TierOut moved nothing")
	}
	if _, err := s.CreateSnapshot(lb, "snap"); err != nil {
		t.Fatal(err)
	}
	churn(2000)
	drain()
	if _, err := s.DeleteSnapshot(lb, "snap"); err != nil {
		t.Fatal(err)
	}
	churn(1500)
	for i := 0; i < 6; i++ { // drain the delayed-free carryover
		cp()
	}
	drain()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if v := s.Agg.WatchdogViolations(); len(v) > 0 {
		t.Fatalf("watchdog violations: %v", v)
	}

	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b))
	}
	var events []obs.Event
	for _, ev := range tracer.Events() {
		// The one commit-step fold emits its update count at every commit;
		// a pipelined commit of an empty sealed bank used to emit nothing.
		if pipeline && strings.HasPrefix(ev.Phase, "cp.fold.") && ev.Value == 0 {
			continue
		}
		events = append(events, ev)
	}
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]string{
		"counters": digest(s.Counters()),
		"cpstats":  digest(cps),
		"pipeline": digest(s.PipelineStats()),
		"snapshot": digest(s.Registry().StableSnapshot()),
		"csv":      fmt.Sprintf("%x", sha256.Sum256([]byte(csv.String()))),
		"trace":    fmt.Sprintf("%x", sha256.Sum256(jsonl.Bytes())),
	}
}

// TestCPStreamsGolden pins every stream a CP boundary produces, on the
// classic and on the pipelined path, to fixed digests. A change to the
// commit machinery that moves any modeled number, metric, CSV row, or trace
// event on either path fails here.
func TestCPStreamsGolden(t *testing.T) {
	want := map[bool]map[string]string{
		false: {
			"counters": "a19c0b39c3ae000d909d58700fa28ff06e973c12dc17377df201062f32dc0f9c",
			"cpstats":  "4013b2dfe12227cff32af78e8f3ecc659b9ee2ce7374105b05d2e7730f4a01f3",
			"pipeline": "3cd0a592228df936267e4fed4d766d60ac48642e79dffa071560976ba6e31245",
			"snapshot": "07a700c2b7cd5ac453b8033ebabb60066afe7b30a5d4ab3601e94cc6c4e949d4",
			"csv":      "a526de27ef6b71c472b7d5b4a49a18bda14026ad6fa8535908fe8789c60863f2",
			"trace":    "1fea0babeb72b8e48f112c1b9a6f9af2fe6b65fbadc90db17d2a23e17e3df1a6",
		},
		true: {
			"counters": "fd70af1cd50bdd709074409cfd86067423987ec28e83339a124eae7fbfd1bd07",
			"cpstats":  "ee19e068fef34e2cb97f780334e22660c36d4f98a84a6de8d51dcc058d01575b",
			"pipeline": "19131c9b252725397def17a591fb03e123cc2fc48e7551aa09f7d3707e99a315",
			"snapshot": "ed6c8008c8c4aea12550d1ae01c1a30fc91782f6feb5702a10585e6c5667dbb4",
			"csv":      "df54bd78603717bc9c33518f3b06e7c9be8d2ca9ee39df2048b4ab34c18c4a7f",
			"trace":    "99cd67cd59a59a5502b7b93bfc0aaa4028be2b447d371f5aceda33809d905597",
		},
	}
	for _, pipeline := range []bool{false, true} {
		got := goldenStreams(t, pipeline)
		for stream, w := range want[pipeline] {
			if got[stream] != w {
				t.Errorf("pipeline=%v %s digest %s, want %s", pipeline, stream, got[stream], w)
			}
		}
	}
}
