#!/usr/bin/env bash
# Runs one workload once per seed and saves each run's result line as
# OUTDIR/<workload>-<seed>.json, the layout "run.sh compare" reads.
# Usage: perfbench/runset.sh OUTDIR WORKLOAD SECONDS SEED...
set -euo pipefail
out=$1 wl=$2 secs=$3
shift 3
mkdir -p "$out"
for s in "$@"; do
	bash "$(dirname "$0")/run.sh" --workload "$wl" --seed "$s" --seconds "$secs" --trace 0 |
		tail -n 1 >"$out/$wl-$s.json"
done
