#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it from the
# repository root. Build outputs and the Go caches stay inside the
# checkout, in $CARGO_TARGET_DIR (default .bench_build).
#
#   bash perfbench/run.sh --workload steady-100k --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh                 # every workload, seed 1, untraced
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off

bin=$out/perfbench
(cd "$root/perfbench" && go build -o "$bin" .)

case " $* " in
*-workload* | *-list* | *" -h "* | *" --help "*) exec "$bin" "$@" ;;
esac
status=0
for w in $("$bin" --list); do
	"$bin" --workload "$w" "$@" || status=1
done
exit $status
