#!/usr/bin/env bash
# Write every shipped output of the checkout this script lives in to OUT.
#
# Usage: scripts/shipped_outputs.sh OUT
#
# OUT receives the three simulate runs, the four check reports with
# their exit codes, the strict refusal (which must leave no output
# directory), echo-time, dump-defaults, both sweeps and both published
# scripts.  PYTHONHASHSEED and OPENBLAS_NUM_THREADS are taken from the
# caller, so two runs under different values can be compared with
# `diff -r`; so can two checkouts run under the same values.
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
out="$(cd "$1" && pwd)"
export PYTHONPATH="$root/src"
cd "$root"

for name in recrib_ideal recrib_strong reafc_weak; do
  python -m ramanecho simulate "scenarios/$name.ini" --out "$out/$name"
done
# check exits 3 on recrib_broken_iv, so each exit code is recorded with
# its report instead of ending the script
for name in recrib_ideal recrib_strong reafc_weak recrib_broken_iv; do
  code=0
  python -m ramanecho check "scenarios/$name.ini" \
    > "$out/check-$name.txt" || code=$?
  echo "exit $code" >> "$out/check-$name.txt"
done
# the strict refusal: exit code and stderr, and no output directory
code=0
python -m ramanecho simulate scenarios/recrib_broken_iv.ini \
  --out "$out/recrib_broken_iv" \
  > "$out/simulate-recrib_broken_iv.txt" 2>&1 || code=$?
echo "exit $code" >> "$out/simulate-recrib_broken_iv.txt"
test ! -e "$out/recrib_broken_iv"
python -m ramanecho echo-time --t1 3.141592653589793 --delta-comb 1 \
  > "$out/echo-time.txt"
python -m ramanecho dump-defaults > "$out/dump-defaults.ini"
python -m ramanecho sweep --out "$out/sweep.csv" > /dev/null
# without dephasing every optimum takes the gamma = 1 boundary path,
# warnings included; stdout names the output path, which differs
# between output directories
python -m ramanecho sweep --alpha0L 35,100,1000 --total-time 0 \
  --gamma 0:1:0.0005 --out "$out/sweep-t0.csv" \
  > /dev/null 2> "$out/sweep-t0.txt"
# the published scripts run from inside OUT, so that the output paths
# their stdout names are relative and the same in every OUT
(cd "$out" && python "$root/scripts/recrib_demo.py" --out-root demo \
  > recrib_demo.txt)
(cd "$out" && python "$root/scripts/fig2_sweep.py" --out fig2.csv \
  > fig2_sweep.txt)
