#!/usr/bin/env bash
# Builds the test suite under a sanitizer and runs it.
#
#   tools/run_sanitized_tests.sh            # ThreadSanitizer (default)
#   tools/run_sanitized_tests.sh tsan       # ThreadSanitizer
#   tools/run_sanitized_tests.sh asan       # AddressSanitizer + UBSan
#   tools/run_sanitized_tests.sh ubsan      # UBSan alone (fastest)
#   tools/run_sanitized_tests.sh tsan -R ThreadPool   # extra args go to ctest
#
# Each sanitizer gets its own build directory (build-tsan / build-asan /
# build-ubsan) so instrumented and plain objects never mix. Exits non-zero on
# any test failure or sanitizer report.

set -euo pipefail
cd "$(dirname "$0")/.."

san="${1:-tsan}"
shift || true
case "$san" in
  tsan|asan|ubsan) ;;
  *) echo "usage: $0 [tsan|asan|ubsan] [ctest args...]" >&2; exit 2 ;;
esac

build_dir="build-$san"
cmake -B "$build_dir" -S . -DPOLLUX_SANITIZE="$san" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" --target pollux_tests pollux_slow_tests

# halt_on_error turns any report into a test failure instead of a log line.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"
