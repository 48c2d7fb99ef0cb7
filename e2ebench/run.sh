#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's own sources and
# runs it. Run from the root of a checkout:
#
#   bash e2ebench/run.sh --workload suite-small --seed 1 --seconds 25 --trace 0
#   bash e2ebench/run.sh --workload all            # every workload in turn
#
# Everything it writes (Go build cache, binary, records, traces) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a GenomicsBench checkout" >&2
	exit 2
fi

out="$root/.bench_build/e2ebench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# Tunables are pinned, not probed: their probes pick different values
# from one process to the next on a noisy host, so two checkouts of the
# same code would run different code paths. The values are the ones
# the probes chose most often on a 2-core x86-64 host. GBENCH_TUNE=off
# freezes any tunable not named here at its default.
export GBENCH_TUNE=off
export GBENCH_TUNE_FMINDEX_BATCH_WIDTH=16 GBENCH_TUNE_KMERCNT_WAVE_WIDTH=16
export GBENCH_TUNE_LANES_WIDE_MIN_WORK=0 GBENCH_TUNE_PARALLEL_DISPATCH=0
export GBENCH_TUNE_PILEUP_SHORT_RUN_MIN=8 GBENCH_TUNE_PILEUP_WORD_RUN_MIN=32

(cd "$root/e2ebench" && go build -trimpath -o "$out/e2ebench" .) >&2

if [[ " $* " == *" --workload all "* ]]; then
	# The last --workload wins, so each run overrides "all".
	rc=0
	for w in suite-small suite-large-no-phmm pipelines; do
		"$out/e2ebench" --out "$out" "$@" --workload "$w" || rc=$?
	done
	exit "$rc"
fi
exec "$out/e2ebench" --out "$out" "$@"
