#!/usr/bin/env bash
# Builds the benchmark and the dcnflow binary from the checkout's sources,
# then runs one workload:
#
#   bash perfbench/run.sh --workload offline-ft32 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build/ (or $CARGO_TARGET_DIR when set), so the run reads and
# writes nothing outside the checkout; the last line of stdout is the
# result object.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/dcnflow" dcnflow/cmd/dcnflow
)
exec "$out/perfbench" --bin "$out/dcnflow" "$@"
