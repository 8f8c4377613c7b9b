#!/usr/bin/env sh
# CI entry point: build and run the tier-1 test suite under the
# default toolchain, AddressSanitizer+UBSan and ThreadSanitizer, plus
# the verification plane (differential suite + time-boxed fuzz smoke)
# and the benchmark's self-test.
#
#   scripts/check.sh            # all five flavours
#   scripts/check.sh default    # just one
#                               # (default | asan | tsan | verify | bench)
#
# Each test flavour uses its own build directory (build-check-<flavour>)
# so repeated runs are incremental and the user's ./build is untouched.
# Every test flavour builds the library, the tests, bench/ and
# examples/, so tier-1 includes the bench smokes (bench_trace_smoke,
# bench_ablations_smoke, bench_ext_scaling_smoke) and the tsan flavour
# race-checks their sweeps.
# Exits non-zero on the first failing flavour.
#
# The bench flavour runs pearlbench/selftest.py: it builds pearlbench
# in Release under .bench_build/ and runs every workload of
# BENCHMARK.json at smoke-test length, untraced and traced, checking
# exit status, the declared metric names and units, and the result's
# correctness flag.  A library change that breaks the benchmark's
# build or its metrics fails here.
#
# The verify flavour reuses the asan build tree (sanitized binaries),
# runs only tests labelled `verify` with the runtime invariant checker
# forced on, and budgets the fuzz campaign through PEARL_FUZZ_CASES /
# PEARL_FUZZ_SECONDS (defaults: 200 seed-pinned cases, 30 s box).
# The label also covers the scale-out smokes: a 64-cluster grouped chip
# through the Runner facade (Invariants.ScaleOut64ClusterSmoke, pinned
# seed, bounded cycles) and the 128-cluster invariant-clean run
# (Invariants.MaxScaleChipRunsInvariantClean), both audited step by
# step under ASan.

set -eu

cd "$(dirname "$0")/.."

JOBS="${PEARL_CHECK_JOBS:-4}"
FLAVOURS="${1:-default asan tsan verify bench}"

run_flavour() {
    flavour="$1"
    dir="build-check-$flavour"
    case "$flavour" in
    default) sanitize=OFF ;;
    asan) sanitize=ON ;;
    tsan) sanitize=TSAN ;;
    verify) dir="build-check-asan" sanitize=ON ;;
    bench)
        echo "==> [bench] pearlbench self-test (Release, every workload" \
             "at --tiny, untraced and traced)"
        python3 pearlbench/selftest.py
        return
        ;;
    *)
        echo "check.sh: unknown flavour '$flavour'" \
             "(want default | asan | tsan | verify | bench)" >&2
        exit 2
        ;;
    esac

    echo "==> [$flavour] configure (PEARL_SANITIZE=$sanitize)"
    cmake -B "$dir" -DPEARL_SANITIZE="$sanitize" \
        >"$dir.configure.log" 2>&1 || {
        cat "$dir.configure.log"
        exit 1
    }

    echo "==> [$flavour] build"
    cmake --build "$dir" -j "$JOBS" >"$dir.build.log" 2>&1 || {
        tail -n 100 "$dir.build.log"
        exit 1
    }

    if [ "$flavour" = verify ]; then
        # PEARL_THREADS sizes only sweep job pools; the differential
        # suite and the 128-cluster invariant-clean smoke step on one
        # thread, audited under ASan.
        echo "==> [verify] ctest -L verify (invariants on, fuzz smoke," \
             "PEARL_THREADS=4)"
        PEARL_VERIFY=1 \
        PEARL_THREADS=4 \
        PEARL_FUZZ_CASES="${PEARL_FUZZ_CASES:-200}" \
        PEARL_FUZZ_SECONDS="${PEARL_FUZZ_SECONDS:-30}" \
            ctest --test-dir "$dir" -L verify --output-on-failure
    elif [ "$flavour" = tsan ]; then
        # PEARL_THREADS=8 sizes every sweep job pool, so
        # ThreadSanitizer race-checks the concurrent sweep jobs across
        # the whole suite; single runs step on one thread.
        echo "==> [tsan] ctest -L tier1 (PEARL_THREADS=8)"
        PEARL_THREADS=8 \
            ctest --test-dir "$dir" -L tier1 --output-on-failure
    else
        echo "==> [$flavour] ctest -L tier1"
        ctest --test-dir "$dir" -L tier1 --output-on-failure
    fi
}

for f in $FLAVOURS; do
    run_flavour "$f"
done

echo "==> all flavours passed: $FLAVOURS"
