#!/usr/bin/env bash
# One-shot gate: configure, build, run the test suite, then exercise the
# observability pipeline end to end — run a small bench with --metrics-out
# and validate the emitted baps.report.v1 JSON with report_check.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
# Env:   BAPS_SANITIZE=address scripts/check.sh build-asan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  ${BAPS_SANITIZE:+-DBAPS_SANITIZE="$BAPS_SANITIZE"}
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

REPORT="$BUILD_DIR/check_fig2_report.json"
"$BUILD_DIR/bench/bench_fig2" --scale 0.05 --csv --metrics-out "$REPORT" \
  > /dev/null
"$BUILD_DIR/tools/report_check" "$REPORT"

# Malformed input is an invalid report (exit 1), never an abort: a truncated
# file, and a parseable one whose sweep metrics lack the proxy location.
TRUNCATED="$BUILD_DIR/check_truncated_report.json"
NO_PROXY="$BUILD_DIR/check_no_proxy_report.json"
head -c 2000 "$REPORT" > "$TRUNCATED"
sed 's/"proxy": {/"proxi": {/' "$REPORT" > "$NO_PROXY"
for BAD in "$TRUNCATED" "$NO_PROXY"; do
  STATUS=0
  "$BUILD_DIR/tools/report_check" "$BAD" 2> /dev/null || STATUS=$?
  [ "$STATUS" -eq 1 ] \
    || { echo "report_check exited $STATUS on malformed $BAD"; exit 1; }
done

# Duration flags reject what they cannot represent: nan is a parse error,
# and an idle timeout beyond INT_MAX milliseconds is refused — both exit 2
# before the daemon binds anything.
for BAD_IDLE in 1e12 nan; do
  STATUS=0
  "$BUILD_DIR/tools/baps_proxyd" --port 0 --idle-timeout "$BAD_IDLE" \
    --max-seconds 1 > /dev/null 2>&1 || STATUS=$?
  [ "$STATUS" -eq 2 ] \
    || { echo "baps_proxyd --idle-timeout $BAD_IDLE exited $STATUS"; exit 1; }
done

# Loopback daemon smoke test: a real baps_proxyd (epoll loop) on an
# ephemeral port, a 200-request trace slice over TCP and the same slice
# in-process — the per-request outcome streams and the summary lines must
# be byte-identical. Browser caches small enough to evict make the run send
# index removes, which TCP writes without waiting for a reply.
PROXYD_LOG="$BUILD_DIR/check_proxyd.log"
"$BUILD_DIR/tools/baps_proxyd" --port 0 --clients 8 --seed 11 \
  --max-seconds 120 > "$PROXYD_LOG" 2>&1 &
PROXYD_PID=$!
trap 'kill "$PROXYD_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  PROXY_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$PROXYD_LOG")
  [ -n "$PROXY_PORT" ] && break
  sleep 0.1
done
[ -n "$PROXY_PORT" ] || { echo "proxyd never came up"; cat "$PROXYD_LOG"; exit 1; }
"$BUILD_DIR/tools/baps_fetch" --transport tcp --port "$PROXY_PORT" \
  --clients 8 --seed 11 --preset bu95 --requests 200 --browser-cache 16384 \
  --sources-out "$BUILD_DIR/check_tcp_sources.txt" \
  > "$BUILD_DIR/check_tcp_summary.txt" 2> /dev/null
"$BUILD_DIR/tools/baps_fetch" --transport loopback \
  --clients 8 --seed 11 --preset bu95 --requests 200 --browser-cache 16384 \
  --sources-out "$BUILD_DIR/check_loop_sources.txt" \
  > "$BUILD_DIR/check_loop_summary.txt" 2> /dev/null
diff "$BUILD_DIR/check_tcp_sources.txt" "$BUILD_DIR/check_loop_sources.txt"
diff "$BUILD_DIR/check_tcp_summary.txt" "$BUILD_DIR/check_loop_summary.txt"
if grep -q ' index_removes=0\b' "$BUILD_DIR/check_tcp_summary.txt" \
    || ! grep -q ' index_removes=' "$BUILD_DIR/check_tcp_summary.txt"; then
  echo "tcp/loopback smoke sent no index removes"
  cat "$BUILD_DIR/check_tcp_summary.txt"
  exit 1
fi
kill "$PROXYD_PID" 2>/dev/null || true
wait "$PROXYD_PID" 2>/dev/null || true
trap - EXIT
echo "check.sh: tcp/loopback sources and summaries identical (200 requests)"

# Tracing smoke: run the same daemon with sampling at 1.0 on both sides, then
# assert the two span logs stitch — shared trace ids whose parent links all
# resolve across the client/proxy process boundary — and that the live STATS
# endpoint serves a baps.trace_stats.v1 snapshot while the daemon is up.
PROXYD_LOG="$BUILD_DIR/check_trace_proxyd.log"
PROXY_SPANS="$BUILD_DIR/check_trace_proxy_spans.jsonl"
CLIENT_SPANS="$BUILD_DIR/check_trace_client_spans.jsonl"
"$BUILD_DIR/tools/baps_proxyd" --port 0 --clients 8 --seed 11 \
  --trace-sample 1.0 --trace-out "$PROXY_SPANS" \
  --max-seconds 120 > "$PROXYD_LOG" 2>&1 &
PROXYD_PID=$!
trap 'kill "$PROXYD_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  PROXY_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$PROXYD_LOG")
  [ -n "$PROXY_PORT" ] && break
  sleep 0.1
done
[ -n "$PROXY_PORT" ] || { echo "traced proxyd never came up"; cat "$PROXYD_LOG"; exit 1; }
"$BUILD_DIR/tools/baps_fetch" --transport tcp --port "$PROXY_PORT" \
  --clients 8 --seed 11 --preset bu95 --requests 200 \
  --trace-sample 1.0 --trace-out "$CLIENT_SPANS" > /dev/null 2>&1
STATS=$("$BUILD_DIR/tools/baps_fetch" --transport tcp --port "$PROXY_PORT" \
  --stats)
echo "$STATS" | grep -q '"schema": *"baps.trace_stats.v1"' \
  || { echo "STATS snapshot missing schema"; echo "$STATS"; exit 1; }
kill "$PROXYD_PID" 2>/dev/null || true
wait "$PROXYD_PID" 2>/dev/null || true
trap - EXIT
"$BUILD_DIR/tools/trace_check" --min-shared 100 \
  "$CLIENT_SPANS" "$PROXY_SPANS"
echo "check.sh: traced tcp run stitched across client and proxyd"

# Seeded fault smoke: a loopback run with every fault kind enabled must
# serve all requests correctly (--fault-strict: verified == requests and
# recovered == injected), and the emitted report's fault_* counter families
# must validate. The shrunken caches push traffic onto the peer path so the
# frame/disconnect/slow kinds actually fire, not just the churn kinds.
FAULT_REPORT="$BUILD_DIR/check_fault_report.json"
"$BUILD_DIR/tools/baps_fetch" --transport loopback --clients 8 --seed 11 \
  --preset bu95 --requests 1500 --proxy-cache 16384 --browser-cache 32768 \
  --fault-seed 42 \
  --fault-rates "disconnect=0.1,depart=0.02,join=0.5,slow=0.1,drop=0.08,corrupt=0.08,restart=0.002,slow_budget_ms=25" \
  --fault-strict --metrics-out "$FAULT_REPORT" > /dev/null 2>&1
"$BUILD_DIR/tools/report_check" "$FAULT_REPORT"
echo "check.sh: seeded fault run fully recovered (1500 requests)"

# Crash-recovery smoke: the same seeded loopback run with proxy restarts,
# once cold (RAM only) and once warm (--store-dir). The durable tier must
# recover proxy hits the restarts destroy, and must never serve a damaged
# object (store_integrity_failures_total stays 0 in the emitted report).
STORE_DIR="$BUILD_DIR/check_store"
STORE_REPORT="$BUILD_DIR/check_store_report.json"
rm -rf "$STORE_DIR"
COLD_HITS=$("$BUILD_DIR/tools/baps_fetch" --transport loopback --clients 8 \
  --seed 11 --preset bu95 --requests 1200 \
  --proxy-cache 16384 --browser-cache 4096 \
  --fault-seed 42 --fault-rates "restart=0.01" 2>/dev/null \
  | sed -n 's/.*proxy_hits=\([0-9]*\).*/\1/p')
WARM_HITS=$("$BUILD_DIR/tools/baps_fetch" --transport loopback --clients 8 \
  --seed 11 --preset bu95 --requests 1200 \
  --proxy-cache 16384 --browser-cache 4096 \
  --fault-seed 42 --fault-rates "restart=0.01" \
  --store-dir "$STORE_DIR" --store-capacity 64m \
  --metrics-out "$STORE_REPORT" 2>/dev/null \
  | sed -n 's/.*proxy_hits=\([0-9]*\).*/\1/p')
[ -n "$COLD_HITS" ] && [ -n "$WARM_HITS" ] \
  || { echo "store smoke: could not parse proxy_hits"; exit 1; }
[ "$WARM_HITS" -gt "$COLD_HITS" ] \
  || { echo "store smoke: warm restart did not recover hits" \
       "(warm=$WARM_HITS cold=$COLD_HITS)"; exit 1; }
"$BUILD_DIR/tools/report_check" "$STORE_REPORT"
grep -A2 '"store_integrity_failures_total"' "$STORE_REPORT" \
  | grep -q '"value": 0' \
  || { echo "store smoke: integrity failures reported"; exit 1; }
echo "check.sh: warm restart recovered hits (warm=$WARM_HITS cold=$COLD_HITS, 0 integrity failures)"

# Time-series smoke: a daemon sampling at 250ms streams baps.timeseries.v1
# JSONL while serving traffic; baps_top polls a live window over the wire
# (TimeSeriesRequest frame) and must render per-interval rates; after
# shutdown the exported stream must pass the cross-record validator
# (validated only once the daemon is dead — the last line is whole then).
TS_LOG="$BUILD_DIR/check_ts_proxyd.log"
TS_OUT="$BUILD_DIR/check_ts.jsonl"
"$BUILD_DIR/tools/baps_proxyd" --port 0 --clients 8 --seed 11 \
  --ts-interval 250ms --ts-out "$TS_OUT" \
  --max-seconds 120 > "$TS_LOG" 2>&1 &
PROXYD_PID=$!
trap 'kill "$PROXYD_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  PROXY_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$TS_LOG")
  [ -n "$PROXY_PORT" ] && break
  sleep 0.1
done
[ -n "$PROXY_PORT" ] || { echo "ts proxyd never came up"; cat "$TS_LOG"; exit 1; }
"$BUILD_DIR/tools/baps_fetch" --transport tcp --port "$PROXY_PORT" \
  --clients 8 --seed 11 --preset bu95 --requests 500 > /dev/null 2>&1
sleep 0.6  # let at least two post-traffic intervals land in the ring
TOP=$("$BUILD_DIR/tools/baps_top" --port "$PROXY_PORT" --plain --iterations 1)
echo "$TOP" | grep -q 'requests .*\/s' \
  || { echo "baps_top rendered no request rate"; echo "$TOP"; exit 1; }
echo "$TOP" | grep -q 'hit ratio' \
  || { echo "baps_top rendered no hit ratio"; echo "$TOP"; exit 1; }
kill "$PROXYD_PID" 2>/dev/null || true
wait "$PROXYD_PID" 2>/dev/null || true
trap - EXIT
"$BUILD_DIR/tools/report_check" --timeseries "$TS_OUT"
echo "check.sh: live baps_top frame rendered, time-series stream validated"

# Connection-load smoke: bench_connload must hold 2000 concurrent
# connections through a daemon with valid quantile gauges in its report.
# 2000 keeps the smoke inside default fd limits; the 10k headline run is the
# same commands with --connections 10000 (see README).
CONNLOAD_LOG="$BUILD_DIR/check_connload_proxyd.log"
CONNLOAD_REPORT="$BUILD_DIR/check_connload_report.json"
"$BUILD_DIR/tools/baps_proxyd" --port 0 --clients 8 --seed 11 \
  --max-seconds 120 > "$CONNLOAD_LOG" 2>&1 &
PROXYD_PID=$!
trap 'kill "$PROXYD_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  PROXY_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$CONNLOAD_LOG")
  [ -n "$PROXY_PORT" ] && break
  sleep 0.1
done
[ -n "$PROXY_PORT" ] || { echo "connload proxyd never came up"; cat "$CONNLOAD_LOG"; exit 1; }
"$BUILD_DIR/bench/bench_connload" --port "$PROXY_PORT" --connections 2000 \
  --min-peak 2000 --metrics-out "$CONNLOAD_REPORT" > /dev/null
kill "$PROXYD_PID" 2>/dev/null || true
wait "$PROXYD_PID" 2>/dev/null || true
trap - EXIT
"$BUILD_DIR/tools/report_check" "$CONNLOAD_REPORT"
echo "check.sh: 2000-conn load validated"

# Perf-gate smoke: report_diff must pass a report against itself and against
# the committed hotpath history, and — the self-test that makes its green
# trustworthy — must FAIL when a 75% regression is seeded into the
# comparison.
DIFF_REPORT="$BUILD_DIR/check_diff_report.json"
"$BUILD_DIR/bench/bench_replay" --scale 0.05 --reps 1 \
  --metrics-out "$DIFF_REPORT" > /dev/null
"$BUILD_DIR/tools/report_diff" "$DIFF_REPORT" "$DIFF_REPORT" > /dev/null
"$BUILD_DIR/tools/report_diff" BENCH_hotpath.json "$DIFF_REPORT" \
  --tolerance 60 > /dev/null
if "$BUILD_DIR/tools/report_diff" BENCH_hotpath.json "$DIFF_REPORT" \
  --tolerance 60 --inject-regression 75 > /dev/null 2>&1; then
  echo "report_diff failed to fail on a seeded 75% regression"; exit 1
fi
echo "check.sh: report_diff gate passes clean and trips on a seeded regression"

echo "check.sh: all good"
