#!/usr/bin/env bash
# Builds the benchmark, relm-serve and relm-router from this checkout into
# .bench_build/ at the checkout root, then runs the benchmark with the given
# arguments (--workload, --seed, --seconds, --trace; or "compare A B").
# Every file the build or the run writes stays under .bench_build/.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd "$bench" && go build -o "$out/bin/" . relm/cmd/relm-serve relm/cmd/relm-router) >&2
if [ "${1:-}" = compare ]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
