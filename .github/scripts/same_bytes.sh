#!/usr/bin/env bash
# Runs iblp on the PJM 5-bus and IEEE 39-bus cases at 1, 2 and 4 workers
# and checks that the 2- and 4-worker runs give the 1-worker region.json,
# binding.json, manifest oracle records, iteration count and termination.
# Then runs milp on both cases at 1 and 2 workers, whose binding report
# explains its facets on the workers, and checks that both runs give the
# same region.json and binding.json.  Needs the drrcalc console script;
# writes its runs under the current directory.
set -euo pipefail
for case in case5_wind case39_wind; do
  for threads in 1 2 4; do
    drrcalc compute --case "cases/$case.m" \
      --renewables "cases/${case}_renewables.json" \
      --method iblp --threads "$threads" --out "$case-$threads"
  done
  for threads in 2 4; do
    cmp "$case-1/region.json" "$case-$threads/region.json"
    cmp "$case-1/binding.json" "$case-$threads/binding.json"
  done
  python -c "
import json, sys
runs = [json.load(open(f'{sys.argv[1]}-{t}/manifest.json')) for t in (1, 2, 4)]
keys = ('oracle', 'iterations', 'termination')
assert all([r[k] for k in keys] == [runs[0][k] for k in keys] for r in runs), sys.argv[1]
" "$case"
done
for case in case5_wind case39_wind; do
  for threads in 1 2; do
    drrcalc compute --case "cases/$case.m" \
      --renewables "cases/${case}_renewables.json" \
      --method milp --threads "$threads" --out "$case-milp-$threads"
  done
  cmp "$case-milp-1/region.json" "$case-milp-2/region.json"
  cmp "$case-milp-1/binding.json" "$case-milp-2/binding.json"
done
