#!/usr/bin/env bash
# Runs the full bench suite with --json and merges the per-binary reports
# into four suite documents (schema sentinel-bench-suite-v1):
#
#   BENCH_core.json         in-process benches (events, rules, txn)
#   BENCH_storage.json      the durability suite (group-commit sweep,
#                           bounded recovery, history-scan)
#   BENCH_gateway.json      the gateway bench (TCP + shm local transport)
#   BENCH_replication.json  the failover bench
#
# Each binary runs REPETITIONS times and its report lists every
# repetition's results, so each point appears REPETITIONS times: that is
# its spread. Each suite carries a "host" object (nproc, CPU model,
# affinity, compiler, build type, sanitizer, git SHA) read from /proc and
# the build tree's CMakeCache.txt.
#
# usage: bench/run_all.sh [--quick] [--build-dir DIR] [--out-dir DIR]
#
#   --quick      pass --quick to every bench and run each once (seconds
#                instead of minutes; what CI runs)
#   --build-dir  cmake build tree holding bench/ and tools/ (default: build)
#   --out-dir    where BENCH_*.json land (default: current directory)
#
# Exits nonzero when any bench fails, the schema validator is not built, or
# any merged document does not validate against the schema.
set -euo pipefail

REPETITIONS=3
BUILD_DIR=build
OUT_DIR=.
QUICK=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK="--quick"; REPETITIONS=1; shift ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

BENCH_DIR="$BUILD_DIR/bench"
VALIDATOR="$BUILD_DIR/tools/bench_json_validate"
[[ -d "$BENCH_DIR" ]] || { echo "no such bench dir: $BENCH_DIR" >&2; exit 2; }
[[ -x "$VALIDATOR" ]] || { echo "schema validator not built: $VALIDATOR" >&2; exit 2; }
mkdir -p "$OUT_DIR"

CORE_BENCHES=(
  bench_subscription
  bench_event_detection
  bench_reactive_overhead
  bench_rule_sharing
  bench_rule_lifecycle
  bench_coupling_modes
  bench_contexts
  bench_three_way
  bench_feature_matrix
  bench_ablation_routing
  bench_index
  bench_metrics
)
STORAGE_BENCHES=(bench_persistence)
GATEWAY_BENCHES=(bench_gateway)
REPLICATION_BENCHES=(bench_replication)

TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT

# The host fingerprint every suite document carries, as a JSON object.
HOST_JSON=$(python3 - "$BUILD_DIR/CMakeCache.txt" "$(dirname "$0")" <<'PY'
import json, re, subprocess, sys
cache = {}
with open(sys.argv[1]) as f:
    for line in f:
        m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.rstrip("\n"))
        if m:
            cache[m.group(1)] = m.group(2)
def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"
with open("/proc/cpuinfo") as f:
    cpuinfo = f.read()
models = re.findall(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
affinity = re.search(r"^Cpus_allowed_list:\s*(.*)$",
                     open("/proc/self/status").read(), re.M)
print(json.dumps({
    "nproc": str(len(re.findall(r"^processor\s*:", cpuinfo, re.M))),
    "cpu_model": models[0] if models else "unknown",
    "affinity": affinity.group(1) if affinity else "unknown",
    "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
    "build_type": cache.get("CMAKE_BUILD_TYPE") or "unknown",
    "sanitizer": cache.get("SENTINEL_SANITIZE") or "none",
    # The commit, suffixed -dirty when tracked files differ from it.
    "git_sha": first_line(["git", "-C", sys.argv[2], "describe", "--always",
                           "--dirty", "--abbrev=40", "--exclude=*"]),
}))
PY
)

# Runs each named bench REPETITIONS times with --json and writes one suite
# document holding one report per bench with every repetition's results.
run_suite() {
  local out_file=$1; shift
  local parts=()
  for bench in "$@"; do
    local bin="$BENCH_DIR/$bench"
    [[ -x "$bin" ]] || { echo "missing bench binary: $bin" >&2; return 1; }
    for ((rep = 1; rep <= REPETITIONS; rep++)); do
      echo "=== $bench ($rep/$REPETITIONS) ==="
      "$bin" --json "$TMP_DIR/$bench.$rep.json" $QUICK
      parts+=("$TMP_DIR/$bench.$rep.json")
    done
  done
  python3 - "$out_file" "$HOST_JSON" "${parts[@]}" <<'PY'
import json, sys
reports = {}
for path in sys.argv[3:]:
    with open(path) as f:
        report = json.load(f)
    merged = reports.setdefault(report["binary"], dict(report, results=[]))
    merged["results"] += report["results"]
with open(sys.argv[1], "w") as f:
    json.dump({"schema": "sentinel-bench-suite-v1",
               "host": json.loads(sys.argv[2]),
               "benches": list(reports.values())}, f)
    f.write("\n")
PY
}

run_suite "$OUT_DIR/BENCH_core.json" "${CORE_BENCHES[@]}"
run_suite "$OUT_DIR/BENCH_storage.json" "${STORAGE_BENCHES[@]}"
run_suite "$OUT_DIR/BENCH_gateway.json" "${GATEWAY_BENCHES[@]}"
run_suite "$OUT_DIR/BENCH_replication.json" "${REPLICATION_BENCHES[@]}"

"$VALIDATOR" "$OUT_DIR/BENCH_core.json" "$OUT_DIR/BENCH_storage.json" \
             "$OUT_DIR/BENCH_gateway.json" "$OUT_DIR/BENCH_replication.json"

# Gateway-suite contract beyond the generic schema: the shared-memory local
# transport point must be present, carry its counters, and come from a
# fingerprinted run; no pipelined point may have been throttled by
# backpressure. bench_gateway exits nonzero when the segment cannot be
# attached, but guard here too so a silently dropped row (e.g. a future
# refactor skipping the shm section) cannot produce a valid-looking but
# TCP-only BENCH_gateway.json.
python3 - "$OUT_DIR/BENCH_gateway.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if not isinstance(doc.get("host"), dict):
    sys.exit("BENCH_gateway.json: missing host fingerprint")
results = [r for b in doc["benches"] for r in b["results"]]
shm = [r for r in results if r["name"] == "gateway/shm_pipelined"]
if not shm:
    sys.exit("BENCH_gateway.json: missing gateway/shm_pipelined result")
for field in ("events_per_sec", "producers", "shards", "backpressure_rejections"):
    if field not in shm[0].get("counters", {}):
        sys.exit("BENCH_gateway.json: shm_pipelined missing counter " + field)
for r in results:
    if r["counters"].get("backpressure_rejections", 0) != 0:
        sys.exit("BENCH_gateway.json: backpressure rejections in " + r["name"])
print("BENCH_gateway.json: gateway/shm_pipelined contract ok")
PY
