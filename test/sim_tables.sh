#!/usr/bin/env bash
# Print the output of every simulated experiment of bench/main.exe, one
# process per experiment, with the wall-clock lines stripped.  The
# simulator is deterministic, so this output is byte-stable: CI diffs it
# against test/golden/sim_tables.txt.  From the repository root:
#
#   dune build bench/main.exe
#   bash test/sim_tables.sh > test/golden/sim_tables.txt   # regenerate
set -euo pipefail
exe=_build/default/bench/main.exe
for name in table1 table2 table3 table4 fig7 fig8 fig9 fig10 fig11 fig12 \
  redis rpc connscale qpscale loss mix loadlat acceptscale qos ablation; do
  echo "### $name"
  "$exe" "$name" | grep -v 'wall clock'
done
