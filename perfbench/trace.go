package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// Spans of the traced rounds. They are recorded in memory by the driver
// around each call into internal/wafl and written out when the run ends;
// untraced rounds record none, so the end-to-end numbers never carry the
// clock reads and bookkeeping.

type spanKind uint8

const (
	spanRead spanKind = iota
	spanWrite
	spanCP
	spanFirstCP // first CP after a seeded remount
	spanSnapCreate
	spanSnapDelete
	spanRemountTopAA
	spanRemountWalk
	spanBackgroundFill
	spanRound // the measured phase of one traced round
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"read", "write", "cp", "first_cp", "snapshot_create", "snapshot_delete",
	"remount_topaa", "remount_walk", "background_fill", "round",
}

// span is one call. Ops carry their op sequence number as id and the CP
// that flushes them as parent; CPs carry their ordinal in the round and the
// round as parent; other calls carry the CP they follow as parent.
type span struct {
	kind       spanKind
	round      uint32
	id, parent uint64
	start, dur int64 // ns since the tracer was created
}

type tracer struct {
	base   time.Time
	round  uint32
	cps    uint64 // CPs so far in the current round
	calls  uint64
	spans  []span
	allocs []uint64  // heap objects allocated by each CP call
	scales []float64 // reference-time scale of each traced round
	prof   *profSplit

	allocSample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		base:        time.Now(),
		prof:        newProfSplit(),
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// beginRound starts a new round's CP and call numbering.
func (t *tracer) beginRound() {
	t.round++
	t.cps = 0
	t.calls = 0
}

func (t *tracer) op(k spanKind, t0 time.Time, id uint64) {
	t.spans = append(t.spans, span{kind: k, round: t.round, id: id, parent: t.cps + 1,
		start: int64(t0.Sub(t.base)), dur: int64(time.Since(t0))})
}

func (t *tracer) cp(k spanKind, t0 time.Time, dur time.Duration, allocs uint64) {
	t.cps++
	t.spans = append(t.spans, span{kind: k, round: t.round, id: t.cps, parent: uint64(t.round),
		start: int64(t0.Sub(t.base)), dur: int64(dur)})
	t.allocs = append(t.allocs, allocs)
}

// call records a span for a call other than a read, write or CP; a nil
// tracer records nothing.
func (t *tracer) call(k spanKind, t0 time.Time) {
	if t == nil {
		return
	}
	t.calls++
	t.spans = append(t.spans, span{kind: k, round: t.round, id: t.calls, parent: t.cps,
		start: int64(t0.Sub(t.base)), dur: int64(time.Since(t0))})
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocSample)
	return t.allocSample[0].Value.Uint64()
}

// durations returns the recorded durations of one span kind, in reference
// ns (see ref.go).
func (t *tracer) durations(k spanKind) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.kind == k {
			out = append(out, float64(s.dur)*t.scales[s.round-1])
		}
	}
	return out
}

// write stores the spans as gzipped CSV.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "round,span,id,parent,start_ns,dur_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", s.round, spanNames[s.kind], s.id, s.parent, s.start, s.dur)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
