#!/usr/bin/env bash
# Build and test driver.
#
#   scripts/check.sh            # tier1: build everything, run fast suites
#   scripts/check.sh full       # build everything, run all suites
#   scripts/check.sh stress     # run only the long property/stress suites
#   scripts/check.sh san        # ASan+UBSan build, run tier1 suites
#   scripts/check.sh tsan       # TSan build, run the epoch/gate/service/
#                               # allocator/pin/server concurrency suites
#                               # (label: tsan)
#   scripts/check.sh docs       # no build: doc links + documented flags
#                               # (scripts/check_docs.sh)
#
# Extra arguments after the mode are forwarded to ctest, e.g.
#   scripts/check.sh tier1 -R test_common
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-tier1}"
[ "$#" -gt 0 ] && shift

jobs="$(nproc 2>/dev/null || echo 2)"

case "$mode" in
  tier1|full|stress)
    builddir=build
    cmake -B "$builddir" -S .
    ;;
  san)
    builddir=build-san
    cmake -B "$builddir" -S . -DINCLL_SANITIZE=address,undefined
    ;;
  tsan)
    builddir=build-tsan
    cmake -B "$builddir" -S . -DINCLL_SANITIZE=thread
    ;;
  docs)
    exec scripts/check_docs.sh
    ;;
  *)
    echo "usage: $0 [tier1|full|stress|san|tsan|docs] [ctest args...]" >&2
    exit 2
    ;;
esac

cmake --build "$builddir" -j "$jobs"

case "$mode" in
  tier1|san) label=(-L tier1) ;;
  stress)    label=(-L stress) ;;
  tsan)      label=(-L tsan) ;;
  full)      label=() ;;
esac

# ${label[@]+...} keeps set -u happy on bash < 4.4 when the array is empty.
exec ctest --test-dir "$builddir" --output-on-failure -j "$jobs" \
    ${label[@]+"${label[@]}"} "$@"
