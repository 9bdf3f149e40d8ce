#!/usr/bin/env bash
# End-to-end host-cost benchmark; see benchmark/README.md. Run from the
# repository root. Builds a Release binary into build-bench/ first.
#
#   bash benchmark/run.sh OUT_DIR [--seed N] [--seconds S]
#       Runs every workload of BENCHMARK.json with tracing on, one process
#       each, prints every metric as "workload metric value unit" and
#       writes OUT_DIR/<workload>.json. Exits non-zero if any check failed.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run. The last line of stdout is the result JSON.
#
#   bash benchmark/run.sh --check
#       Tiny sizes, all workloads, plus the corrupted-output self-test.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/src/CMakeLists.txt" || ! -f "$root/benchmark/CMakeLists.txt" ]]; then
  echo "run.sh: run from the repository root; src/ and benchmark/ are needed" >&2
  exit 2
fi
if [[ $# -eq 0 ]]; then
  echo "usage: bash benchmark/run.sh OUT_DIR [--seed N] [--seconds S]" >&2
  echo "       bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]" >&2
  exit 2
fi

build="$root/build-bench"
mkdir -p "$build"
if ! { cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed; full log in $build/build.log" >&2
  exit 1
fi
bin="$build/nestpar_e2e"

if [[ "$1" == --* ]]; then
  exec "$bin" "$@"
fi

out=$1
shift
seed=2026
seconds=10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seed=*) seed=${1#--seed=}; shift ;;
    --seconds) seconds=$2; shift 2 ;;
    --seconds=*) seconds=${1#--seconds=}; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
mkdir -p "$out"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for w in $workloads; do
  # The binary's last line is the result JSON; the file holds it in full.
  if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
       --json "$out/$w.json" | grep -v '^{'; then
    echo "run.sh: $w failed its checks" >&2
    status=1
  fi
done
exit $status
