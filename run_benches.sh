#!/bin/sh
# Runs every figure/ablation/micro bench at full paper scale (8-ary
# 3-cube) and prints their output. Takes on the order of an hour on one
# core. Sweep benches also drop JSONL telemetry (one record per sweep
# point plus a summary) and a wormsim.timeseries/1 windowed-series
# stream into bench_telemetry/ so throughput, saturation-onset and
# skip-ratio diagnostics can be compared across machines and commits.
set -u
cd "$(dirname "$0")"
mkdir -p bench_telemetry
status=0
# The gate checker validates itself before it is trusted with any
# real bench JSON.
python3 tools/check_bench.py --self-test || status=1
# Sanitizer preflights, each in its own instrumented tree (slow the
# first time, incremental after). TSan runs the parallel-labelled tests:
# the --jobs parallel_for, the parallel sweep engine and the
# multi-threaded tracer must be provably race-free before any parallel
# sweep number means anything. ASan+UBSan runs the simulator, reference
# lock-step, deadlock, fault, traffic, metrics, integration and util
# test binaries, so lifetime, bounds and undefined-behaviour bugs fail
# here first. Its tree also builds with -Werror, so a new warning in
# src/ or in those eight test binaries fails the preflight.
# WORMSIM_SKIP_TSAN_PREFLIGHT=1 skips both, e.g. on hosts without
# sanitizer runtime support.
if [ "${WORMSIM_SKIP_TSAN_PREFLIGHT:-0}" != "1" ]; then
  echo "===== tsan preflight (ctest -L parallel; WORMSIM_SKIP_TSAN_PREFLIGHT=1 to skip)"
  cmake -B build-tsan -S . -DWORMSIM_TSAN=ON >/dev/null \
    && cmake --build build-tsan -j >/dev/null \
    && (cd build-tsan && ctest -L parallel --output-on-failure) \
    || status=1
  echo "===== asan+ubsan preflight (WORMSIM_SKIP_TSAN_PREFLIGHT=1 to skip)"
  asan_tests="test_util test_sim test_reference test_deadlock test_fault"
  asan_tests="$asan_tests test_traffic test_metrics test_integration"
  if cmake -B build-asan -S . -DWORMSIM_ASAN=ON -DWORMSIM_UBSAN=ON \
       -DCMAKE_CXX_FLAGS=-Werror >/dev/null \
     && cmake --build build-asan -j --target $asan_tests >/dev/null; then
    for t in $asan_tests; do
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        "build-asan/tests/$t" --gtest_brief=1 || status=1
    done
  else
    status=1
  fi
fi
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name=$(basename "$b")
  echo "===== $b"
  case "$name" in
    fig01*|fig05*|fig06*|fig07*|fig08*|fig09*|fig10*|ablation_avoidance)
      # Standard sweep benches: collect per-point JSONL telemetry plus
      # the windowed time series (histograms + saturation detector on).
      "$b" --metrics-out "bench_telemetry/$name.jsonl" \
           --timeseries-out "bench_telemetry/$name.timeseries.jsonl"
      ;;
    fault_transient)
      # Degraded-operation demo (telemetry + spatial CSVs of the faulty
      # network), then the gated recovery-transient JSON, re-validated
      # the same way as the micro_mechanism gates.
      "$b" --metrics-out "bench_telemetry/$name.jsonl" \
           --timeseries-out "bench_telemetry/$name.timeseries.jsonl" \
           --spatial-out "bench_telemetry/$name" \
           --spatial-load 1.0 --spatial-limiter alo
      "$b" --json bench_telemetry/fault_transient.json || status=1
      python3 tools/check_bench.py bench_telemetry/fault_transient.json \
        || status=1
      ;;
    micro_mechanism)
      # Google-benchmark suite, then the gated JSON modes. Each JSON is
      # re-validated against its embedded criteria block so a perf
      # regression fails the whole run, not just one loop iteration.
      # obs_overhead carries the online-statistics overhead gates
      # (off A/A <= 2%, histograms+timeseries on <= 5%).
      "$b"
      "$b" --hotpath-json bench_telemetry/hotpath.json || status=1
      "$b" --obs-overhead-json bench_telemetry/obs_overhead.json || status=1
      python3 tools/check_bench.py bench_telemetry/hotpath.json \
        bench_telemetry/obs_overhead.json || status=1
      ;;
    *)
      # Custom-loop and google-benchmark binaries: no sweep telemetry.
      "$b"
      ;;
  esac
done
exit "$status"
