#!/usr/bin/env bash
#
# Runs every seqlog bench binary and aggregates their google-benchmark JSON
# reports into one file (default: bench_results.json in the build
# directory). Each binary first prints its paper-reproduction table;
# those tables are kept out of the JSON by sending the report through
# --benchmark_out. The aggregate includes the bench_lint linter-cost
# series, the bench_serve batch-amortisation rows, the bench_ivm
# incremental-vs-cold maintenance rows, and a "loadgen" section of
# closed-loop serving measurements: seqlog-serve is started on an
# ephemeral loopback port and seqlog-loadgen drives the text-index and
# genome workloads in exec, batch, and mixed read/write mode — the mixed
# rows carry separate read_*/write_* percentiles so read-path latency
# under a live write stream is checkable from the JSON
# (tools/seqlog_loadgen.cc). The loadgen section is skipped with a note
# when the tools are not built. bench_transducer_compile enforces its
# >= 3x fused-speedup bar in-process and fails the run when missed.
#
# One run is one repetition on one host: compare numbers only against a
# run of the parent commit taken back to back on the same machine.
#
# Usage: bench/run_benches.sh [BUILD_DIR] [OUT_JSON]
#   BUILD_DIR  cmake build directory containing bench/ (default: build)
#   OUT_JSON   aggregate output path (default: BUILD_DIR/bench_results.json)
#
# Environment:
#   SEQLOG_BENCH_MIN_TIME  --benchmark_min_time per benchmark (default 0.05)
#   SEQLOG_BENCH_FILTER    optional --benchmark_filter regex
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT_JSON="${2:-$BUILD_DIR/bench_results.json}"
MIN_TIME="${SEQLOG_BENCH_MIN_TIME:-0.05}"

BENCH_DIR="$BUILD_DIR/bench"
if ! ls "$BENCH_DIR"/bench_* >/dev/null 2>&1; then
  echo "error: no bench binaries under $BENCH_DIR" >&2
  echo "build them first: cmake --build \"$BUILD_DIR\" --target bench_all" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

for bin in "$BENCH_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  echo "== ${name}"
  args=("--benchmark_out=${TMP_DIR}/${name}.json"
        "--benchmark_out_format=json"
        "--benchmark_min_time=${MIN_TIME}")
  if [ -n "${SEQLOG_BENCH_FILTER:-}" ]; then
    args+=("--benchmark_filter=${SEQLOG_BENCH_FILTER}")
  fi
  if ! "$bin" "${args[@]}" > "${TMP_DIR}/${name}.stdout" 2>&1; then
    echo "error: ${name} failed; tail of its output:" >&2
    tail -20 "${TMP_DIR}/${name}.stdout" >&2
    exit 1
  fi
done

# --- Closed-loop serving measurements (tools/seqlog_loadgen.cc) ------
SERVE_BIN="$BUILD_DIR/tools/seqlog-serve"
LOADGEN_BIN="$BUILD_DIR/tools/seqlog-loadgen"
if [ -x "$SERVE_BIN" ] && [ -x "$LOADGEN_BIN" ]; then
  for workload in text genome; do
    echo "== loadgen ${workload}"
    SERVE_OUT="$TMP_DIR/serve_${workload}.out"
    "$SERVE_BIN" --workload="$workload" --port=0 --sessions=4 \
      >"$SERVE_OUT" 2>&1 &
    SERVER_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
      PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
        "$SERVE_OUT" | head -1)"
      [ -n "$PORT" ] && break
      kill -0 "$SERVER_PID" 2>/dev/null || break
      sleep 0.1
    done
    if [ -z "$PORT" ]; then
      echo "error: seqlog-serve (${workload}) did not come up" >&2
      cat "$SERVE_OUT" >&2
      exit 1
    fi
    "$LOADGEN_BIN" --port="$PORT" --workload="$workload" --mode=exec \
      --connections=4 --requests=100 --json \
      > "$TMP_DIR/loadgen_${workload}_exec.json"
    "$LOADGEN_BIN" --port="$PORT" --workload="$workload" --mode=batch \
      --batch-size=32 --connections=2 --requests=20 --json \
      > "$TMP_DIR/loadgen_${workload}_batch.json"
    # Mixed read/write: a quarter of the requests are FACT writes staged
    # on the live-ingest queue; each writer ends with a PUBLISH.
    "$LOADGEN_BIN" --port="$PORT" --workload="$workload" --mode=exec \
      --connections=4 --requests=100 --write-mix=0.25 --json \
      > "$TMP_DIR/loadgen_${workload}_mixed.json"
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
  done
else
  echo "note: serving tools not built; skipping loadgen rows" >&2
fi

python3 - "$TMP_DIR" "$OUT_JSON" <<'PY'
import json
import pathlib
import sys

tmp, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
agg = {"suite": "seqlog", "context": {}, "benchmarks": {}, "loadgen": []}
for path in sorted(tmp.glob("loadgen_*.json")):
    agg["loadgen"].append(json.loads(path.read_text()))
for path in sorted(tmp.glob("bench_*.json")):
    text = path.read_text()
    if not text.strip():
        # A --benchmark_filter that excludes every benchmark in a binary
        # leaves an empty report file behind; record it as zero timings.
        agg["benchmarks"][path.stem] = []
        continue
    report = json.loads(text)
    if not agg["context"]:
        agg["context"] = report.get("context", {})
    agg["benchmarks"][path.stem] = report.get("benchmarks", [])
out.write_text(json.dumps(agg, indent=2) + "\n")
timings = sum(len(v) for v in agg["benchmarks"].values())
print(f"wrote {out} ({len(agg['benchmarks'])} bench binaries, {timings} "
      f"timings, {len(agg['loadgen'])} loadgen rows)")
PY
