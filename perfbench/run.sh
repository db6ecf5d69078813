#!/usr/bin/env bash
# Builds cmd/wtq-server and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Everything it builds or
# writes stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
export GOTMPDIR="$root/.bench_build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" .bench_build/bin
# Rebuild only when a Go source or module file changed since the last
# build: a no-op go build still costs about a second per binary.
stamp=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print |
	LC_ALL=C sort | xargs -d '\n' sha1sum | sha1sum)
if [[ ! -x .bench_build/bin/wtq-server || ! -x .bench_build/bin/perfbench || "$(cat .bench_build/stamp 2>/dev/null)" != "$stamp" ]]; then
	go build -o .bench_build/bin/wtq-server ./cmd/wtq-server
	(cd perfbench && go build -o ../.bench_build/bin/perfbench .)
	echo "$stamp" >.bench_build/stamp
fi
exec .bench_build/bin/perfbench "$@"
