#!/usr/bin/env bash
# Builds the benchmark (the simulator from ../src, in Release) into
# build-bench/ at the repository root, then runs it. See benchmark/README.md.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last line of stdout is its JSON result, holding
#       the end-to-end metrics (or, traced, the per-layer ones)
#   benchmark/run.sh [--seed N] [--seconds S]
#       full pass: every workload in turn
#   benchmark/run.sh --trace [--seed N]
#       traced pass: per-layer metrics, spans in build-bench/trace/NAME.json
#   benchmark/run.sh --smoke
#       every workload at 1/50 length, plain and traced; checks that every
#       metric BENCHMARK.json names is printed with its unit
#
# Exits non-zero if the build, a run or any built-in check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: simulator sources not found at $root/src" >&2
  exit 2
fi

workload="" seed=1 seconds=10 trace=0 smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr: stdout carries only results.
generator=()
if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja > /dev/null; then
  generator=(-G Ninja)
fi
jobs="$(nproc 2> /dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target af_benchmark -j "$jobs" >&2
bin="$build/af_benchmark"

# run_one NAME [driver args...]: one workload; traced runs write spans.
run_one() {
  local name="$1"; shift
  local extra=()
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/trace"
    extra=(--trace-out "$build/trace/$name.json")
  fi
  "$bin" --workload "$name" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${extra[@]}" "$@"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
  exit $?
fi

# metric_names SECTION: "name unit" lines of one BENCHMARK.json list.
metric_names() {
  awk -v section="\"$1\"" '
    index($0, section) { inside = 1; next }
    inside && /\]/ { inside = 0 }
    inside && match($0, /"name": "[^"]*", "unit": "[^"]*"/) {
      split(substr($0, RSTART, RLENGTH), f, "\"")
      print f[4], f[8]
    }' "$root/BENCHMARK.json"
}

# check_units SECTION OUTPUT: every metric of SECTION is in the JSON line.
check_units() {
  local json missing=0 seen=0 name unit
  json="$(tail -n 1 <<< "$2")"
  while read -r name unit; do
    seen=$((seen + 1))
    if ! grep -qE "\"$name\": \\{\"value\": [-0-9.e+]+, \"unit\": \"$unit\"\\}" \
        <<< "$json"; then
      echo "smoke: $name [$unit] missing from the $1 output" >&2
      missing=1
    fi
  done < <(metric_names "$1")
  if [[ "$seen" == 0 ]]; then
    echo "smoke: no $1 metrics found in $root/BENCHMARK.json" >&2
    missing=1
  fi
  return "$missing"
}

status=0
if [[ "$smoke" == 1 ]]; then
  for name in $("$bin" --list); do
    for trace in 0 1; do
      section=end_to_end
      [[ "$trace" == 1 ]] && section=per_layer
      if out="$(seconds=0 run_one "$name" --scale 0.02)"; then
        check_units "$section" "$out" || status=1
      else
        echo "smoke: $name (trace $trace) failed" >&2
        status=1
      fi
    done
  done
  [[ "$status" == 0 ]] && echo "smoke: every metric printed with its unit"
  exit "$status"
fi

for name in $("$bin" --list); do
  echo "== $name"
  run_one "$name" || status=1
done
exit "$status"
