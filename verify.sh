#!/bin/sh
# Tier-1 verification: formatting, build, full test suite, the race detector
# over every parallel path (CP flush fan-out, experiment arms, mount walks),
# and an end-to-end observability smoke test of the bench binary.
# The race run uses -short to skip the slowest experiment reproductions;
# every concurrency-bearing code path still executes under the detector.
set -eux

fmt=$(gofmt -l cmd internal)
if [ -n "$fmt" ]; then
    echo "gofmt needed on: $fmt" >&2
    exit 1
fi

go build ./...
go vet ./...
# The benchmark is its own module (replace waflfs => ../, no other
# dependencies), so the root vet does not see it: vet it here so an
# internal API change that breaks the benchmark fails tier 1.
(cd perfbench && go vet .)
# Its tests pin the benchmark's own contracts: the observed workload's
# modeled metrics equal the aged one's, modeled metrics are deterministic
# across rounds, and the printed metrics match BENCHMARK.json (~40 s).
(cd perfbench && go test .)
go test ./...
go test -race -short ./...

# Fuzz smoke: a few seconds per TopAA decoder, enough to execute the seed
# corpus plus fresh mutations under the fuzzer's instrumentation.
go test -run '^$' -fuzz '^FuzzLoadRAIDAware$' -fuzztime 5s ./internal/topaa
go test -run '^$' -fuzz '^FuzzLoadAgnostic$' -fuzztime 5s ./internal/topaa
# Sharded-HBPS op-sequence fuzzer: random stage/pop/free/flush interleavings
# must preserve the tracked-set and no-duplicate-pick invariants.
go test -run '^$' -fuzz '^FuzzShardedOps$' -fuzztime 5s ./internal/hbps
# SLO-spec parser fuzzer: any accepted spec string must round-trip through
# its canonical formatting to an identical portfolio.
go test -run '^$' -fuzz '^FuzzParseSLOSpec$' -fuzztime 5s ./internal/obs/slo
# Optrace trace-ID / config-spec parser fuzzer: anything accepted must
# round-trip through its canonical formatting.
go test -run '^$' -fuzz '^FuzzParseOptrace$' -fuzztime 5s ./internal/obs/optrace
# Control-policy parser fuzzer: any accepted clause string must round-trip
# through its canonical formatting to an identical portfolio.
go test -run '^$' -fuzz '^FuzzParseControlPolicy$' -fuzztime 5s ./internal/control

# Observability smoke test: a small bench run must serve /metrics (the bench
# self-checks the endpoint and exits nonzero if it cannot fetch it) and
# produce non-empty CSV and trace files. The default SLO portfolio rides
# along: the clean figure run must fire no warn or page (-slo-expect none
# exits nonzero otherwise). The closed-loop controller rides along too and
# must keep its hands off a healthy run (-control-expect none).
tmpdir=$(mktemp -d)
live_pid=""
cleanup() {
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "=== verify.sh failed (exit $status) ===" >&2
        for f in live.out snap.out; do
            if [ -f "$tmpdir/$f" ]; then
                echo "--- $f ---" >&2
                cat "$tmpdir/$f" >&2
            fi
        done
    fi
    if [ -n "$live_pid" ]; then
        kill "$live_pid" 2>/dev/null || true
        wait "$live_pid" 2>/dev/null || true
    fi
    rm -rf "$tmpdir"
}
trap cleanup EXIT
go build -o "$tmpdir/waflbench" ./cmd/waflbench
"$tmpdir/waflbench" -exp fig9 -scale 0.05 \
    -metrics-addr 127.0.0.1:0 \
    -csv-out "$tmpdir/bench.csv" \
    -trace-out "$tmpdir/bench.jsonl" \
    -slo default -slo-expect none \
    -control default -control-expect none >/dev/null
test -s "$tmpdir/bench.csv"
test -s "$tmpdir/bench.jsonl"

# Allocator pick-path smoke: the striped arm's modeled pick wall-clock at
# 8 workers must beat the shared arm's, or the bench exits nonzero. Also
# exercises -trace-collapse end to end.
"$tmpdir/waflbench" -pickbench -scale 0.1 \
    -trace-collapse "$tmpdir/pick.folded" >/dev/null
test -s "$tmpdir/pick.folded"

# Benchmark-artifact smoke test: a tiny-scale artifact must collect, and
# benchdiff comparing it against itself must report zero drift (exit 0) —
# the regression gate's own sanity check. The committed baseline is
# auto-selected (highest-numbered BENCH_<n>.json) and must self-compare
# clean too, proving the gate can read what the repo ships.
go build -o "$tmpdir/benchdiff" ./cmd/benchdiff
"$tmpdir/waflbench" -bench-json "$tmpdir/BENCH_smoke.json" -pipeline -control default -scale 0.05 >/dev/null
test -s "$tmpdir/BENCH_smoke.json"
"$tmpdir/benchdiff" "$tmpdir/BENCH_smoke.json" "$tmpdir/BENCH_smoke.json"
latest=$("$tmpdir/benchdiff" -print-latest)
test -s "$latest"
"$tmpdir/benchdiff" "$latest" "$latest"

# Crash-recovery gate: crash at every CP phase × media fault at tiny scale;
# the bench exits nonzero if any recovered AA cache silently disagrees with
# the bitmap metafiles (see internal/faultinject and the mount-time scrub).
# The SLO portfolio must see the damage: -slo-expect alerts exits nonzero
# unless at least one crash cell pages the recovery SLI. The controller must
# act on it: -control-expect actuations exits nonzero unless the recovery
# page actually kicked a scrub somewhere in the matrix.
"$tmpdir/waflbench" -faults matrix -scale 0.05 \
    -slo default -slo-expect alerts \
    -control default -control-expect actuations >/dev/null

# Pipelined-CP gate both ways: the clean overlap benchmark must clear its
# 1.3x floor with byte-identical final states and fire no SLO alert, and a
# crash in the overlap window (alloc of generation n+1 racing the flush of
# generation n) must recover without silent divergence while paging the
# recovery SLI.
"$tmpdir/waflbench" -pipeline -scale 0.05 \
    -slo default -slo-expect none >/dev/null
"$tmpdir/waflbench" -faults pipeline -scale 0.05 \
    -slo default -slo-expect alerts >/dev/null

# Live-introspection smoke test: hold the live endpoints after a small run
# (with the SLO engine, op tracer, and closed-loop controller armed) and
# point wafltop -snapshot at them; it exits nonzero unless the embedded
# time-series store serves nonzero per-CP series, and also if any SLO
# instance is paging or any controller policy is mid-flap. The snapshot must
# include the SLO, slowest-ops, and control-plane panels, /debug/slo and
# /debug/control must serve populated status documents, and /debug/optrace
# must serve a sampled trace that can be fetched back individually by its ID
# (the "explain this exemplar" path).
go build -o "$tmpdir/wafltop" ./cmd/wafltop
"$tmpdir/waflbench" -exp fig9 -scale 0.05 \
    -metrics-addr 127.0.0.1:0 -slo default -optrace rate=2 \
    -control default -hold 60s >"$tmpdir/live.out" 2>&1 &
live_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^serving live endpoints at http://\([^ ]*\).*#\1#p' "$tmpdir/live.out")
    if [ -n "$addr" ] && grep -q "completed in" "$tmpdir/live.out"; then
        break
    fi
    sleep 0.2
done
test -n "$addr"
fetch() {
    curl -fsS "$1" 2>/dev/null || wget -qO - "$1"
}
"$tmpdir/wafltop" -addr "$addr" -snapshot >"$tmpdir/snap.out"
grep -q "SLO portfolio" "$tmpdir/snap.out"
grep -q "slowest sampled ops" "$tmpdir/snap.out"
grep -q "control plane" "$tmpdir/snap.out"
"$tmpdir/wafltop" -addr "$addr" -json >"$tmpdir/top.json"
grep -q '"optrace"' "$tmpdir/top.json"
grep -q '"control"' "$tmpdir/top.json"
fetch "http://$addr/debug/slo" >"$tmpdir/slo.json"
grep -q '"evaluations"' "$tmpdir/slo.json"
fetch "http://$addr/debug/control" >"$tmpdir/control.json"
grep -q '"actuations"' "$tmpdir/control.json"
grep -q '"knobs"' "$tmpdir/control.json"
fetch "http://$addr/debug/optrace?limit=3" >"$tmpdir/optrace.json"
grep -q '"sampled"' "$tmpdir/optrace.json"
# Newest surviving trace ID in the document (trace arrays follow the
# exemplar lists, so the last "id" belongs to a live ring entry)...
tid=$(sed -n 's/^ *"id": \([0-9][0-9]*\),*$/\1/p' "$tmpdir/optrace.json" | tail -n 1)
test -n "$tid"
# ...must be fetchable on its own, the way an SLO exemplar is chased down.
fetch "http://$addr/debug/optrace?id=$tid" >"$tmpdir/trace.json"
grep -q "\"id\": $tid" "$tmpdir/trace.json"
kill "$live_pid" 2>/dev/null || true
wait "$live_pid" 2>/dev/null || true
live_pid=""
