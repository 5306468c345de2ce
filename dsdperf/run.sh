#!/usr/bin/env bash
# Builds the benchmark and the dsdd server from the source tree it sits
# in, then runs one workload:
#
#   bash dsdperf/run.sh --workload solve-flow --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, the Go build
# cache and the generated inputs stay under .bench_build/ in that root.
# The binaries are rebuilt only when a .go or go.mod file changed, so a
# run does not start while the machine is still busy linking.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/dsdperf"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
export GOENV=off GOTELEMETRY=off

sources=$(find "$root" -path "$root/.*" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)
if [ ! -x "$out/bin/dsdperf" ] || [ ! -x "$out/bin/dsdd" ] || [ "$(cat "$out/bin/sources" 2>/dev/null)" != "$sources" ]; then
	rm -f "$out/bin/sources"
	(cd "$here" && go build -o "$out/bin/dsdperf" . && go build -o "$out/bin/dsdd" repro/cmd/dsdd) >&2
	echo "$sources" >"$out/bin/sources"
	# Let the fresh binaries reach the disk before anything is timed.
	sync
fi
exec "$out/bin/dsdperf" -dsdd "$out/bin/dsdd" -work "$out/work" -source "$sources" "$@"
