#!/usr/bin/env bash
# The performance gate: the repository's benchmark (BENCHMARK.json) at a
# base ref against the working tree, judged by `benchmark compare`.
#
#   ci/bench-gate.sh <base-ref> [pairs [seconds]]      (default 3 pairs of 3 s)
#
# Both sides are built from source, then every workload runs on both
# sides back to back, the side that goes first alternating per pair, so
# a slow minute on a shared host lands on both. Pair i uses seed i on
# both sides; pair 1 adds one traced run per side, which carries the
# exact counts. The gate has no threshold of its own: it exits with
# `compare`'s status (non-zero on a `worse`, an exact count that
# differs, or more failed ops than the base). `unresolved` rows are
# printed, not fatal. A claim of a gain needs `ci/bench-gate.sh <ref> 10 12`.
set -euo pipefail

base_ref=${1:?usage: ci/bench-gate.sh <base-ref> [pairs [seconds]]}
pairs=${2:-3}
seconds=${3:-3}

cd "$(git rev-parse --show-toplevel)"
manifest=crates/bench/src/bin/benchmark/Cargo.toml
work=$PWD/target/bench-gate
base_sha=$(git rev-parse --verify "$base_ref^{commit}")

# The base ref's tree, exported rather than checked out: nothing to
# clean up in .git if the job is killed.
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git archive "$base_sha" | tar -x -C "$work/base-src"

CARGO_TARGET_DIR=$work/base cargo build --release --offline --quiet \
    --manifest-path "$work/base-src/$manifest"
CARGO_TARGET_DIR=$work/head cargo build --release --offline --quiet \
    --manifest-path "$manifest"

workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)

# One run of one side: appends the run's line to that side's list. A run
# whose ops failed still counts (compare weighs `failed`); a run that
# printed no result does not.
run() { # side workload seed trace
    local out last
    out=$(CARGO_TARGET_DIR=$work "$work/$1/release/benchmark" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4") || true
    last=${out##*$'\n'}
    case $last in
    '{"correct":'*) ;;
    *)
        echo "bench-gate: $1 $2 seed $3 trace $4 printed no result" >&2
        exit 2
        ;;
    esac
    echo "{\"workload\":\"$2\",\"seed\":$3,\"trace\":$4,${last#\{}" >>"$work/$1.runs"
}

: >"$work/base.runs"
: >"$work/head.runs"
for pair in $(seq 1 "$pairs"); do
    if ((pair % 2)); then order="base head"; else order="head base"; fi
    for w in $workloads; do
        for side in $order; do
            run "$side" "$w" "$pair" 0
            if ((pair == 1)); then run "$side" "$w" "$pair" 1; fi
        done
        echo "bench-gate: pair $pair/$pairs $w done ($order)" >&2
    done
done

# One results file per side, in the layout `benchmark --out` writes.
for side in base head; do
    {
        echo "{\"provenance\":{\"side\":\"$side\",\"base\":\"$base_sha\",\"pairs\":\"$pairs\",\"seconds\":\"$seconds\"},"
        echo '"runs":['
        sed '$!s/$/,/' "$work/$side.runs"
        echo ']}'
    } >"$work/$side.json"
done

"$work/head/release/benchmark" compare "$work/base.json" "$work/head.json"
