#!/usr/bin/env bash
# Smoke test of the `pemskit` console script: every command runs on
# small synthetic year files, and the outputs that must not depend on
# the BLAS kernel, the CPU count or numpy's SIMD level are diffed
# across them.
#
# Run from anywhere with `pemskit` on PATH: bash ci/console_smoke.sh.
# Without an installed package, a two-line shim does, with src on
# PYTHONPATH:  #!/bin/sh  /  exec python -m pemskit.cli "$@"
set -euo pipefail
cd "$(dirname "$0")/.."

pemskit --help
for cmd in summary correlate cluster-vars screen drift knn report; do
  pemskit "$cmd" --help
done
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
python -c "import sys; from pemskit import make_dataset, write_year_files; write_year_files(make_dataset(rows_per_year=60, seed=1), sys.argv[1])" "$work/data"
# a flag the subcommand does not read is a config error (exit 3)
# that stops the run before it writes anything
code=0
pemskit summary --trees 7 --data-dir "$work/data" --out-dir "$work/refused" || code=$?
test "$code" -eq 3
test ! -e "$work/refused"
# so is a flag no command has: the process-only run is
# --predictors afdp,tit,tat,tep,tey,cdp
code=0
pemskit summary --exclude-weather --data-dir "$work/data" --out-dir "$work/refused" || code=$?
test "$code" -eq 3
test ! -e "$work/refused"
# a split that deals Training no row of a 60-row year is degenerate
# data (exit 4), found before anything is written
code=0
pemskit knn --split 0.001,0.5,0.499 --data-dir "$work/data" --out-dir "$work/refused" || code=$?
test "$code" -eq 4
test ! -e "$work/refused"
# a column whose squared deviations overflow float64 is degenerate
# data too, refused at load even where the command does not read it
mkdir "$work/overflow"
python - "$work/data/gt_2011.csv" "$work/overflow/gt_2011.csv" <<'PY'
import csv
import sys

with open(sys.argv[1], newline="") as fh:
    rows = list(csv.reader(fh))
at = rows[0].index("AT")
rows[1][at], rows[2][at] = "1.5e308", "-1.5e308"
with open(sys.argv[2], "w", newline="") as fh:
    csv.writer(fh).writerows(rows)
PY
code=0
pemskit summary --predictors ap --years 2011 --data-dir "$work/overflow" --out-dir "$work/refused" || code=$?
test "$code" -eq 4
test ! -e "$work/refused"
# and so is one whose squared deviations sum to within 2**-20 of
# float64's largest value, which another summation order could
# overflow: AT is 0 but for two cells of +-a, with 2a^2 past that margin
mkdir "$work/edge"
python - "$work/data/gt_2011.csv" "$work/edge/gt_2011.csv" <<'PY'
import csv
import math
import sys

with open(sys.argv[1], newline="") as fh:
    rows = list(csv.reader(fh))
at = rows[0].index("AT")
a = math.sqrt(sys.float_info.max * (1 - 2**-21) / 2)
for row in rows[1:]:
    row[at] = "0.0"
rows[1][at], rows[2][at] = repr(a), repr(-a)
with open(sys.argv[2], "w", newline="") as fh:
    csv.writer(fh).writerows(rows)
PY
code=0
pemskit summary --predictors ap --years 2011 --data-dir "$work/edge" --out-dir "$work/refused" || code=$?
test "$code" -eq 4
test ! -e "$work/refused"
# so is a year far outside the reference year's spread: 2011's AP
# spreads about 3e-158, so a 2012 cell of 1e153 standardizes past
# float64, found before anything is written
python - "$work/far" <<'PY'
import sys

import numpy as np

from pemskit import Dataset, make_dataset, write_year_files

ds = make_dataset(years=(2011, 2012), rows_per_year=60, seed=1)
ap = ds.column("ap").copy()
ap[:60] = np.arange(60) * 1e-160
ap[60] = 1e153
write_year_files(Dataset({**ds.columns, "ap": ap}, ds.year, ds.years),
                 sys.argv[1])
PY
code=0
pemskit drift --years 2011-2012 --data-dir "$work/far" --out-dir "$work/refused" || code=$?
test "$code" -eq 4
test ! -e "$work/refused"
pemskit summary --plots --data-dir "$work/data" --out-dir "$work/summary"
pemskit correlate --plots --data-dir "$work/data" --out-dir "$work/correlate"
pemskit cluster-vars --data-dir "$work/data" --out-dir "$work/cluster-vars"
pemskit drift --plots --data-dir "$work/data" --out-dir "$work/drift"
pemskit knn --k-max 3 --plots --data-dir "$work/data" --out-dir "$work/knn"
# the installed package loads the model that knn wrote and
# predicts record 0 of 2011 with it
python -c "import sys; from pemskit import load_dataset, load_model, predict; model = load_model(sys.argv[1]); ds = load_dataset(sys.argv[2], [2011]); print(predict(model, {name: float(ds.column(name)[0]) for name in model.predictors}))" "$work/knn/model.json" "$work/data"
# the same bytes on one thread of another BLAS kernel, and on
# another kernel (sgemm picks its own for each core type)
OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Prescott pemskit knn --k-max 3 --plots --data-dir "$work/data" --out-dir "$work/knn-prescott"
diff -r "$work/knn" "$work/knn-prescott"
OPENBLAS_CORETYPE=Haswell pemskit knn --k-max 3 --plots --data-dir "$work/data" --out-dir "$work/knn-haswell"
diff -r "$work/knn" "$work/knn-haswell"
# the forest grows its trees across every CPU (4 on the CI runner,
# so 5 trees make uneven blocks); one CPU must give the same
# bytes.  A fork that warns of threads fails the first run.
PYTHONWARNINGS=error::DeprecationWarning pemskit screen --trees 5 --plots --data-dir "$work/data" --out-dir "$work/screen"
taskset -c 0 pemskit screen --trees 5 --plots --data-dir "$work/data" --out-dir "$work/screen-one-cpu"
diff -r "$work/screen" "$work/screen-one-cpu"
# each node sorts its drawn predictors as one block; numpy's
# baseline loops, without its SIMD dispatch targets, must give
# the same bytes
dispatch="$(python -c "import sys; sys.path.insert(0, 'tests'); from conftest import cpu_dispatch; print(' '.join(cpu_dispatch()))")"
echo "disabled SIMD dispatch targets: $dispatch"
NPY_DISABLE_CPU_FEATURES="$dispatch" pemskit screen --trees 5 --plots --data-dir "$work/data" --out-dir "$work/screen-no-simd"
diff -r "$work/screen" "$work/screen-no-simd"
# every chart coordinate is formatted by IEEE-exact elementwise
# operations, so the charts keep their bytes without SIMD dispatch too
NPY_DISABLE_CPU_FEATURES="$dispatch" pemskit correlate --plots --data-dir "$work/data" --out-dir "$work/correlate-no-simd"
NPY_DISABLE_CPU_FEATURES="$dispatch" pemskit knn --k-max 3 --plots --data-dir "$work/data" --out-dir "$work/knn-no-simd"
same_svgs() {
  for svg in "$1"/*.svg; do
    cmp "$svg" "$2/$(basename "$svg")"
  done
}
same_svgs "$work/correlate" "$work/correlate-no-simd"
same_svgs "$work/knn" "$work/knn-no-simd"
# the same on data printed to five significant digits, as the UCI
# export is: its tied values must sort the same on every SIMD level
# and every CPU count
python - "$work/ties" <<'PY'
import sys

import numpy as np

from pemskit import Dataset, make_dataset, write_year_files

ds = make_dataset(rows_per_year=60, seed=1)
cols = {name: np.array([float(f"{v:.5g}") for v in col])
        for name, col in ds.columns.items()}
write_year_files(Dataset(cols, ds.year, ds.years), sys.argv[1])
PY
pemskit screen --trees 5 --plots --data-dir "$work/ties" --out-dir "$work/screen-ties"
NPY_DISABLE_CPU_FEATURES="$dispatch" pemskit screen --trees 5 --plots --data-dir "$work/ties" --out-dir "$work/screen-ties-no-simd"
diff -r "$work/screen-ties" "$work/screen-ties-no-simd"
taskset -c 0 pemskit screen --trees 5 --plots --data-dir "$work/ties" --out-dir "$work/screen-ties-one-cpu"
diff -r "$work/screen-ties" "$work/screen-ties-one-cpu"
pemskit report --trees 2 --k-max 3 --data-dir "$work/data" --out-dir "$work/report"
test "$(ls "$work/report")" = report.json
# report grows its forest through the same workers
taskset -c 0 pemskit report --trees 2 --k-max 3 --data-dir "$work/data" --out-dir "$work/report-one-cpu"
diff -r "$work/report" "$work/report-one-cpu"
# the same diffs at the north star's scale, 5 years x 7,400 rows: a
# scan has 25.9k training rows there, a tree nodes of every size, and
# a scatter 37k points
python -c "import sys; from pemskit import make_dataset, write_year_files; write_year_files(make_dataset(rows_per_year=7400, seed=1, drift=0.3), sys.argv[1])" "$work/real"
pemskit knn --k-max 10 --seed 1 --plots --data-dir "$work/real" --out-dir "$work/real-knn"
taskset -c 0 pemskit knn --k-max 10 --seed 1 --plots --data-dir "$work/real" --out-dir "$work/real-knn-one-cpu"
diff -r "$work/real-knn" "$work/real-knn-one-cpu"
OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Prescott pemskit knn --k-max 10 --seed 1 --plots --data-dir "$work/real" --out-dir "$work/real-knn-prescott"
diff -r "$work/real-knn" "$work/real-knn-prescott"
OPENBLAS_CORETYPE=Haswell pemskit knn --k-max 10 --seed 1 --plots --data-dir "$work/real" --out-dir "$work/real-knn-haswell"
diff -r "$work/real-knn" "$work/real-knn-haswell"
pemskit screen --trees 4 --seed 1 --data-dir "$work/real" --out-dir "$work/real-screen"
taskset -c 0 pemskit screen --trees 4 --seed 1 --data-dir "$work/real" --out-dir "$work/real-screen-one-cpu"
diff -r "$work/real-screen" "$work/real-screen-one-cpu"
NPY_DISABLE_CPU_FEATURES="$dispatch" pemskit screen --trees 4 --seed 1 --data-dir "$work/real" --out-dir "$work/real-screen-no-simd"
diff -r "$work/real-screen" "$work/real-screen-no-simd"
NPY_DISABLE_CPU_FEATURES="$dispatch" pemskit knn --k-max 10 --seed 1 --plots --data-dir "$work/real" --out-dir "$work/real-knn-no-simd"
same_svgs "$work/real-knn" "$work/real-knn-no-simd"
pemskit correlate --plots --data-dir "$work/real" --out-dir "$work/real-correlate"
NPY_DISABLE_CPU_FEATURES="$dispatch" pemskit correlate --plots --data-dir "$work/real" --out-dir "$work/real-correlate-no-simd"
same_svgs "$work/real-correlate" "$work/real-correlate-no-simd"
