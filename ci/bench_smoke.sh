#!/usr/bin/env bash
# Benchmark smoke run: the three workloads whose pinned digests follow
# neither the BLAS kernel nor the SIMD level must report `correct: true`
# with no failed operation.  The forest's workers give the same bytes on
# any CPU count; analytics' PCA outputs follow the BLAS kernel.
#
# Run from anywhere: bash ci/bench_smoke.sh.  Needs numpy and pemskit's
# source; the harness puts src on the children's PYTHONPATH itself.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for workload in knn-pipeline screen-forest score-online; do
  python perfbench/run.py --workload "$workload" --seconds 3 > "$out/$workload.txt"
  tail -n 1 "$out/$workload.txt" | python -c "import json, sys; r = json.loads(sys.stdin.read()); print(r); sys.exit(not (r['correct'] is True and r['failed'] == 0))"
done
