#!/usr/bin/env bash
# Full local check: configure, build, run the test suite, smoke-run every
# benchmark binary (scaled-down data where supported), repeat the test
# suite under AddressSanitizer + UndefinedBehaviorSanitizer, and run the
# concurrency-sensitive tests under ThreadSanitizer.
#
#   scripts/check.sh           everything (default)
#   scripts/check.sh --fast    skip the sanitizer builds
#   scripts/check.sh --asan    ASan/UBSan build + tests only
#   scripts/check.sh --tsan    TSan build + exec/pool tests only
#   scripts/check.sh --diff    differential/property suite only (fast lane)
#   scripts/check.sh --chaos   fault-injection/storage chaos suite under ASan
#   scripts/check.sh --mutate  crash-point mutation battery under ASan
#   scripts/check.sh --serve   concurrent-serve suite under TSan (fast lane)
#   scripts/check.sh --bench-gate  smoke benches vs committed baselines
#                                  through the benchdiff regression gate
set -euo pipefail
cd "$(dirname "$0")/.."

# configure DIR [cmake args...]: Ninja for a fresh tree; an existing tree
# keeps its generator, because CMake refuses to switch one in place
# ("generator : Ninja Does not match"), e.g. a build/ configured earlier by
# a plain `cmake -B build -S .` with Makefiles.
configure() {
  local dir="$1"
  shift
  if [[ -f "$dir/CMakeCache.txt" ]]; then
    cmake -B "$dir" "$@"
  else
    cmake -B "$dir" -G Ninja "$@"
  fi
}

RUN_MAIN=1
RUN_ASAN=1
RUN_TSAN=1
RUN_DIFF=0
RUN_CHAOS=0
RUN_MUTATE=0
RUN_SERVE=0
RUN_BENCH_GATE=0
case "${1:-}" in
  --fast) RUN_ASAN=0; RUN_TSAN=0 ;;
  --asan) RUN_MAIN=0; RUN_TSAN=0 ;;
  --tsan) RUN_MAIN=0; RUN_ASAN=0 ;;
  --diff) RUN_MAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_DIFF=1 ;;
  --chaos) RUN_MAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_CHAOS=1 ;;
  --mutate) RUN_MAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_MUTATE=1 ;;
  --serve) RUN_MAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_SERVE=1 ;;
  --bench-gate) RUN_MAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_BENCH_GATE=1 ;;
esac

if [[ "$RUN_DIFF" == 1 ]]; then
  # Fast lane for engine work: the seeded differential/property harness and
  # the WAH codec fuzz tests (label "differential", tests/CMakeLists.txt)
  # cross-check the plain and compressed-domain engines for bit equality
  # and EvalStats parity in a few seconds.
  configure build
  cmake --build build --target bix_differential_tests
  ctest --test-dir build -L differential --output-on-failure
  # Sorted-index axis under ASan + UBSan: the engine harness re-runs its
  # designs through the row-reordering pass (Design::sort), and the
  # row-order suite fuzzes the permutation sidecar codec — remap and
  # decode paths are pure pointer arithmetic over untrusted lengths,
  # exactly where sanitizers earn their keep.  The row-order suite also
  # drives the counting passes of both row orders, whose histogram and
  # scatter arrays are indexed by rank, against a comparison sort (up to
  # 100000 rows) and past-cardinality ranks that must abort first.
  configure build-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  # The k-ary OR fold's group-space kernel and the engine's dense-on-use
  # operands ride along: the fold indexes per-thread slot and block arrays
  # by group numbers read from code words, and packs its final block
  # through a stack buffer that overhangs the accumulator.
  cmake --build build-asan --target bix_tests bix_differential_tests
  ./build-asan/tests/bix_differential_tests \
      --gtest_filter='EngineDifferentialTest*:WahGroupFoldTest*'
  ./build-asan/tests/bix_tests \
      --gtest_filter='RowOrderTest*:WahDenseOnUseTest*'
fi

if [[ "$RUN_CHAOS" == 1 ]]; then
  # Storage robustness lane: the chaos differential harness
  # (tests/fault_injection_test.cc) plus the storage/format/env/recovery
  # unit tests, built with ASan + UBSan — fault paths exercise error
  # handling and reconstruction code that rarely runs otherwise, exactly
  # where lifetime bugs hide.
  configure build-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan --target bix_tests bix_differential_tests
  ./build-asan/tests/bix_differential_tests --gtest_filter='FaultInjection*'
  ./build-asan/tests/bix_tests \
      --gtest_filter='StorageV2Test*:FormatTest*:PosixEnvTest*:FaultInjectingEnvTest*:RunWithRetryTest*:BackoffTest*:Crc32cTest*:StorageTest*'
fi

if [[ "$RUN_MUTATE" == 1 ]]; then
  # Mutation robustness lane: the crash-point chaos battery (every
  # mutating I/O event of seeded append/delete/compact schedules made
  # fatal in turn; tests/mutation_crash_test.cc, ctest label "mutation")
  # plus the delta-log parser and mutable-index unit tests, under ASan +
  # UBSan — recovery code paths run torn buffers and partial files
  # through parsing and repair, exactly where overreads hide.  The sorted
  # mutable-index tests ride along: Delete's logical-to-physical tombstone
  # pass and the resort compaction index straight through the permutation.
  configure build-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan --target bix_tests bix_mutation_tests
  ./build-asan/tests/bix_mutation_tests
  ./build-asan/tests/bix_tests \
      --gtest_filter='DeltaLog*:MutableStoredIndex*:RowOrderTest.SortedMutableIndex*'
fi

if [[ "$RUN_SERVE" == 1 ]]; then
  # Serving lane: the shared-operand cache, admission control, the
  # concurrent-vs-sequential differential guarantee, the cache soak, and
  # the served-read chaos tests (faults firing inside served queries),
  # under ThreadSanitizer — the single-flight fetch and the cross-query
  # sharing are exactly the code TSan exists for.
  configure build-tsan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake --build build-tsan --target bix_tests bix_differential_tests
  ./build-tsan/tests/bix_tests \
      --gtest_filter='OperandCache*:Admission*:Serve*:Trace*'
  ./build-tsan/tests/bix_differential_tests \
      --gtest_filter='FaultInjectionServe*'
fi

if [[ "$RUN_BENCH_GATE" == 1 ]]; then
  # Perf regression lane: rerun the two baseline-backed benches in smoke
  # mode (min-of-reps inside the bench makes the short runs usable) and
  # compare against bench/baselines/ through benchdiff's ±15% noise band.
  # BIX_GIT_SHA feeds the "_meta" row so results are traceable even when
  # the bench runs outside the repo.  benchdiff refuses to gate when the
  # baseline was recorded on a different host — regenerate baselines on
  # this machine (scripts/check.sh main lane does) before relying on it.
  configure build
  cmake --build build --target bench_wah_merge bench_wah_ablation benchdiff \
      bixctl
  BIX_GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
  export BIX_GIT_SHA
  GATE_DIR="$(mktemp -d)"
  trap 'rm -rf "$GATE_DIR"' EXIT
  # Three runs per bench, min-folded by benchdiff: run-level reps squeeze
  # the fat noise tails that per-rep minima alone cannot (especially on
  # small or shared machines).
  for i in 1 2 3; do
    ./build/bench/bench_wah_merge --smoke "$GATE_DIR/wah_merge.$i.json" \
        > /dev/null
    ./build/bench/bench_wah_ablation --smoke \
        "$GATE_DIR/wah_ablation.$i.json" > /dev/null
    ./build/tools/bixctl bench-serve --columns 4 --rows 50000 \
        --cardinality 64 --queries 1500 --threads 4 --codec lz77 \
        --out "$GATE_DIR/serve.$i.json" > /dev/null
  done
  ./build/tools/benchdiff bench/baselines/BENCH_wah_merge.json \
      "$GATE_DIR"/wah_merge.*.json
  ./build/tools/benchdiff bench/baselines/BENCH_wah_ablation.json \
      "$GATE_DIR"/wah_ablation.*.json
  ./build/tools/benchdiff bench/baselines/BENCH_serve.json \
      "$GATE_DIR"/serve.*.json
fi

if [[ "$RUN_MAIN" == 1 ]]; then
  configure build
  cmake --build build

  # Counting goes through Bitvector::Count()'s dispatched `popcnt` kernel or
  # the inline SWAR PopCount64 (src/bitmap/bitvector.h).  On the default
  # x86-64 target std::popcount is a libgcc call per word, so a new
  # std::popcount site would show up here as an undefined __popcount*
  # symbol.  On x86-64 the bitmap library must also contain a `popcnt`
  # instruction, so the hardware kernel cannot silently compile back to
  # SWAR or a libcall.
  libcalls="$(find build/src -name '*.a' -exec nm -u {} + | grep __popcount || true)"
  if [[ -n "$libcalls" ]]; then
    echo "check.sh: static libraries call libgcc popcount:" >&2
    echo "$libcalls" >&2
    exit 1
  fi
  if [[ "$(uname -m)" == x86_64 ]]; then
    popcnts="$(objdump -d build/src/bitmap/libbix_bitmap.a | grep -cw popcnt || true)"
    if [[ "$popcnts" == 0 ]]; then
      echo "check.sh: build/src/bitmap/libbix_bitmap.a has no popcnt" \
          "instruction; the hardware count kernel is gone" >&2
      exit 1
    fi
  fi

  # The library reads no environment variables: behaviour is set through
  # options and arguments only, so a run is reproducible from its command
  # line.
  envreads="$(grep -rn 'getenv' src/ || true)"
  if [[ -n "$envreads" ]]; then
    echo "check.sh: src/ reads the environment:" >&2
    echo "$envreads" >&2
    exit 1
  fi

  ctest --test-dir build --output-on-failure

  # Heavy benches accept a divisor argument for quick smoke runs.
  ./build/bench/bench_table1_worst_case
  ./build/bench/bench_fig8_eval_algorithms
  ./build/bench/bench_fig9_encoding_tradeoff
  ./build/bench/bench_fig10_fig11_optimal_indexes
  ./build/bench/bench_table2_heuristic
  ./build/bench/bench_fig15_candidate_space
  ./build/bench/bench_table3_table4_compression 10
  ./build/bench/bench_fig16_storage_schemes 10
  ./build/bench/bench_fig17_buffering
  ./build/bench/bench_intro_ridlist_crossover
  ./build/bench/bench_plan_comparison
  ./build/bench/bench_knee_ablation
  ./build/bench/bench_workload_mix_ablation
  ./build/bench/bench_scaling

  # Machine-readable results: these benches write the shared
  # {bench, params, metric, value, unit} schema of bench/bench_json.h into
  # bench/baselines/, which is versioned (see the .gitignore exception) so
  # perf regressions show up as diffs against the committed baselines.
  mkdir -p bench/baselines
  ./build/bench/bench_wah_ablation --smoke bench/baselines/BENCH_wah_ablation.json
  ./build/bench/bench_wah_merge --smoke bench/baselines/BENCH_wah_merge.json
  BIX_GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)" \
      ./build/tools/bixctl bench-serve --columns 4 --rows 50000 \
      --cardinality 64 --queries 1500 --threads 4 --codec lz77 \
      --out bench/baselines/BENCH_serve.json
  ./build/bench/bench_obs BENCH_obs.json
  BIX_BENCH_JSON=BENCH_micro_bitvector.json \
      ./build/bench/bench_micro_bitvector --benchmark_min_time=0.01
  ./build/bench/bench_micro_codec --benchmark_min_time=0.01
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  # Sanitizer pass: rebuild the library and tests with ASan + UBSan and run
  # the full suite, which includes the label-"differential" engine harness
  # and WAH codec fuzz tests.  Benchmarks are excluded (timings are
  # meaningless under instrumentation).
  configure build-asan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  # ThreadSanitizer pass over the concurrency surface: the thread pool,
  # concurrent plain and auto queries on one shared source (the *Segmented*
  # tests), and the serve layer.  The full suite is ~10x slower under TSan,
  # so only the tests that actually spawn threads run here.
  configure build-tsan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake --build build-tsan --target bix_tests bix_differential_tests
  ./build-tsan/tests/bix_tests \
      --gtest_filter='ThreadPool*:*Segmented*:SelectionPlanTest*:OperandCache*:Serve*'
  # P3 on both engines.  Its probes run one after another on the calling
  # thread and spawn no threads of their own, so this is a smoke run of the
  # planner and the process-wide wah_engine.* counters under the TSan build,
  # not a concurrency check.
  ./build-tsan/tests/bix_differential_tests \
      --gtest_filter='PlannerEngineDifferential*'
fi

echo "ALL CHECKS PASSED"
