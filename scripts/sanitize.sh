#!/bin/sh
# Build the sanitizer trees and run the test labels each sanitizer covers.
#
#   scripts/sanitize.sh [asan|tsan]...     (default: asan tsan)
#
# asan: ASan + UBSan tree in build-asan/ (-DUDSIM_ASAN=ON)
# tsan: TSan tree in build-tsan/ (-DUDSIM_TSAN=ON)
#
# The label lists are read from the UDSIM_ASAN / UDSIM_TSAN option help
# strings in the top-level CMakeLists.txt, so they are stated in one place.
# Benchmarks and examples are not built. Prints one line per label and
# exits non-zero if any build or label fails. JOBS (default: nproc) sets
# build and test parallelism; BUILD_ROOT (default: the repo root) is where
# the build-asan/ and build-tsan/ trees go.
set -u

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-$(nproc)}
root=${BUILD_ROOT:-$repo}
# UBSan only reports by default; make a finding fail its test.
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}

labels_of() {  # labels named in option($1 ...)'s help string
  grep "option($1 " "$repo/CMakeLists.txt" | grep -o '`[a-z]*`' | tr -d '`'
}

status=0
[ $# -eq 0 ] && set -- asan tsan
for kind in "$@"; do
  case $kind in
    asan) option=UDSIM_ASAN ;;
    tsan) option=UDSIM_TSAN ;;
    *) echo "sanitize.sh: unknown sanitizer '$kind' (asan|tsan)" >&2; exit 2 ;;
  esac
  dir=$root/build-$kind
  mkdir -p "$dir"
  echo "== $kind: building $dir"
  if ! cmake -B "$dir" -S "$repo" -D$option=ON -DUDSIM_BUILD_BENCH=OFF \
         -DUDSIM_BUILD_EXAMPLES=OFF >"$dir/configure.log" 2>&1 ||
     ! cmake --build "$dir" -j "$jobs" >"$dir/build.log" 2>&1; then
    echo "$kind: BUILD FAILED (see $dir/configure.log, $dir/build.log)"
    status=1
    continue
  fi
  for label in $(labels_of $option); do
    log=$dir/ctest-$label.log
    if ctest --test-dir "$dir" -L "^$label\$" -j "$jobs" --output-on-failure \
         >"$log" 2>&1; then
      echo "$kind $label: PASS ($(grep -o '[0-9]*% tests passed.*' "$log"))"
    else
      echo "$kind $label: FAIL (see $log)"
      status=1
    fi
  done
done
exit $status
