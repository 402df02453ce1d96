#!/usr/bin/env bash
# One-command pre-merge check: tier-1, ASAN, UBSAN and the
# TSAN-labeled parallel subset, each in its own build tree so the
# sanitizer toggles never contaminate the normal configuration.
#
#   1. tier-1:  default Release-ish build, full ctest suite
#   2. ASAN:    OVLSIM_ASAN build (with libstdc++ assertions,
#               _GLIBCXX_ASSERTIONS: checked operator[], std::clamp
#               bounds and friends), full ctest suite (which runs
#               the eight paper benches, quickstart,
#               timeline_gallery, resilience_study, the three
#               platform-campaign studies and generator_study end
#               to end
#               through the bench_pins entry, label `bench`, and
#               its error rows: seventeen user
#               errors, four of them bad input files, that
#               must exit 1 with the message once, never through
#               std::terminate), then
#               explicit serial `ctest -L res`, `ctest -L gen`,
#               `ctest -L obs`, `ctest -L net`, `ctest -L scale`,
#               `ctest -L bus`, `ctest -L scen` and `ctest -L parse`
#               passes (the rollback arenas and snapshot splices
#               are where lifetime bugs would live; generation
#               builds large
#               traces from raw loops; the trace exporter serializes
#               raw span buffers; the link network's occupant pool
#               and per-flow hop slots, the bus/NIC wait lists, the
#               message-slot table and the active scenario's live
#               list and its rollback restore are index-linked,
#               only the 4096-node scale tests reach the large link
#               and hop-slot indices, and the seeded mutation fuzz
#               feeds every text reader hostile input)
#   3. UBSAN:   OVLSIM_UBSAN build, also with libstdc++
#               assertions, full ctest suite (the bench pins and
#               their error rows again; signed overflow and friends
#               in the event/cost arithmetic, plus float-to-integer
#               casts such as a non-finite time reaching SimTime,
#               which GCC's -fsanitize=undefined leaves out; the
#               std::llround duration conversions, library calls
#               it cannot see, go through the range-checked
#               roundNs helper instead),
#               then the same serial `ctest -L res`, `ctest -L gen`,
#               `ctest -L obs`, `ctest -L net`, `ctest -L scale`,
#               `ctest -L bus`, `ctest -L scen` and `ctest -L parse`
#               passes (rollback
#               deltas, generator index/byte arithmetic, the counter
#               accumulations, the occupant-list, hop-slot,
#               wait-list, message-slot and live-list indices, the
#               effective-time shifts, the computed-route index
#               arithmetic and the readers' field conversions are
#               where integer bugs would live)
#   4. TSAN:    OVLSIM_TSAN build, `ctest -L parallel` (the thread
#               pool, the campaign lane runner's sweeps and their
#               pin table, the paper benches' two-lane sweeps and
#               the error rows in bench_pins, scenario determinism,
#               and — via test_obs's parallel label — the span
#               buffers, progress ticks and campaign stats folds),
#               `ctest -L coll` (the algorithmic collective
#               engine), `ctest -L res` (resilience campaigns
#               fanning seeded fault scenarios over the lanes) and
#               `ctest -L gen` (scaling sweeps: prepare tasks
#               generating and lowering points, then
#               costliest-first replays)
#
# After touching bench/ or an example, run `ctest -L bench` in a
# build tree: bench_pins hashes the benches' and seven examples'
# stdout and written files against pins recorded before the change.
#
# Usage:
#   scripts/dev_check.sh            # run all four stages
#   scripts/dev_check.sh --fast     # tier-1 only
#
# Environment:
#   OVLSIM_DEV_BUILD_PREFIX  build directory prefix (default build-dev)
set -euo pipefail

cd "$(dirname "$0")/.."

PREFIX="${OVLSIM_DEV_BUILD_PREFIX:-build-dev}"
JOBS="$(nproc)"
FAST=0
if [[ "${1:-}" == "--fast" ]]; then
    FAST=1
fi

stage() { # name cmake-extra-args...
    local name="$1"
    shift
    local dir="$PREFIX-$name"
    echo "== dev_check: configure + build ($name) =="
    cmake -B "$dir" -S . "$@" >/dev/null
    cmake --build "$dir" -j "$JOBS" >/dev/null
}

echo "== dev_check: stage 1/4 tier-1 =="
stage tier1 -DCMAKE_BUILD_TYPE=Release
(cd "$PREFIX-tier1" && ctest --output-on-failure -j "$JOBS")

if [[ "$FAST" == 1 ]]; then
    echo "dev_check: PASS (tier-1 only)"
    exit 0
fi

echo "== dev_check: stage 2/4 ASAN (full + res/gen/obs/net/scale/bus/scen/parse labels) =="
stage asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOVLSIM_ASAN=ON
(cd "$PREFIX-asan" && ctest --output-on-failure -j "$JOBS")
(cd "$PREFIX-asan" && ctest --output-on-failure -L res)
(cd "$PREFIX-asan" && ctest --output-on-failure -L gen)
(cd "$PREFIX-asan" && ctest --output-on-failure -L obs)
(cd "$PREFIX-asan" && ctest --output-on-failure -L net)
(cd "$PREFIX-asan" && ctest --output-on-failure -L scale)
(cd "$PREFIX-asan" && ctest --output-on-failure -L bus)
(cd "$PREFIX-asan" && ctest --output-on-failure -L scen)
(cd "$PREFIX-asan" && ctest --output-on-failure -L parse)

echo "== dev_check: stage 3/4 UBSAN (full + res/gen/obs/net/scale/bus/scen/parse labels) =="
stage ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOVLSIM_UBSAN=ON
(cd "$PREFIX-ubsan" && ctest --output-on-failure -j "$JOBS")
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L res)
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L gen)
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L obs)
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L net)
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L scale)
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L bus)
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L scen)
(cd "$PREFIX-ubsan" && ctest --output-on-failure -L parse)

echo "== dev_check: stage 4/4 TSAN (parallel + coll + res + gen labels) =="
stage tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOVLSIM_TSAN=ON
(cd "$PREFIX-tsan" && ctest --output-on-failure -L parallel)
(cd "$PREFIX-tsan" && ctest --output-on-failure -L coll)
(cd "$PREFIX-tsan" && ctest --output-on-failure -L res)
(cd "$PREFIX-tsan" && ctest --output-on-failure -L gen)

echo "dev_check: PASS (tier-1 + ASAN + UBSAN + TSAN subsets)"
