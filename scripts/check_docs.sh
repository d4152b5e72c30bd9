#!/usr/bin/env bash
# Documentation consistency checks (fast, no build needed):
#
#   1. every internal markdown link in ARCHITECTURE.md and README.md
#      resolves to a file or directory in the repo;
#   2. every `--flag` named in ARCHITECTURE.md / README.md /
#      EXPERIMENTS.md exists as a parsed flag in one of the repo's flag
#      parsers (bench/bench_util.h, src/server/main.cc,
#      bench/loadgen.cc) — so documentation cannot drift from the
#      parsers (the bug class EXPERIMENTS.md was originally written to
#      fix);
#   3. a required-flag roster: the rebalancing flags, the server flags
#      and the loadgen flags must exist in their specific parser AND be
#      documented in EXPERIMENTS.md — check 2 alone only fires for
#      flags someone documented, so a flag added to a parser but never
#      written up (or silently dropped from the parser along with its
#      docs) would slip through;
#   4. a metric-name roster: every exposition name exported by the code
#      (statName / histName) must be documented in EXPERIMENTS.md.
#
# Non-bench tool flags (cmake/ctest) are allowlisted below. Wired into
# `scripts/check.sh docs` and the CI docs job.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# -- 1. internal links resolve ------------------------------------------
for doc in ARCHITECTURE.md README.md; do
  # Markdown inline links: [text](target). Skip external schemes and
  # pure in-page anchors; strip #anchors from local targets.
  while IFS= read -r target; do
    path="${target%%#*}"
    [ -z "$path" ] && continue
    case "$path" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [ ! -e "$path" ]; then
      echo "FAIL $doc: broken link ($target)"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')

  # Backtick references that look like repo paths (src/..., tests/...,
  # scripts/..., bench/..., examples/...) must exist too.
  while IFS= read -r path; do
    if [ ! -e "$path" ]; then
      echo "FAIL $doc: dangling path reference \`$path\`"
      fail=1
    fi
  done < <(grep -oE '`(src|tests|scripts|bench|examples)/[A-Za-z0-9_./-]+`' "$doc" \
           | tr -d '\`')
done

# -- 2. documented --flags exist in a repo flag parser ------------------
# Allowlist: flags in the docs that belong to other tools.
allow='^--(build|preset|target)$'
parsers='bench/bench_util.h src/server/main.cc bench/loadgen.cc'
while IFS= read -r flag; do
  [[ "$flag" =~ $allow ]] && continue
  if ! grep -q -- "\"$flag\"" $parsers; then
    echo "FAIL docs name $flag but no flag parser ($parsers) parses it"
    fail=1
  fi
done < <(grep -ohE '(^|[^-[:alnum:]])--[a-z][a-z0-9-]*' \
              ARCHITECTURE.md README.md EXPERIMENTS.md \
         | grep -oE '\-\-[a-z][a-z0-9-]*' | sort -u)

# -- 3. required flags: parsed by their specific parser AND documented --
check_roster() { # check_roster PARSER_FILE FLAGS...
  local parser="$1"
  shift
  for flag in "$@"; do
    if ! grep -q -- "\"$flag\"" "$parser"; then
      echo "FAIL required flag $flag is not parsed by $parser"
      fail=1
    fi
    if ! grep -q -- "$flag" EXPERIMENTS.md; then
      echo "FAIL required flag $flag is not documented in EXPERIMENTS.md"
      fail=1
    fi
  done
}
check_roster bench/bench_util.h \
  --rebalance --rebalance-ms --rebalance-skew --hotspot-shift-ops \
  --adaptive-debt-mb --alloc-arenas --value-bytes
check_roster src/server/main.cc \
  --port --shards --io-threads --exec-threads \
  --allow-crash \
  --slow-op-us --record-op-latency
check_roster bench/loadgen.cc \
  --connections --pipeline --rate --multi --slo-us --baseline \
  --crash-drill --stats

# -- 4. every exported metric name is documented ------------------------
# The exposition names are the interface a scraper sees; each counter
# (statName in src/common/stats.cc) and histogram (histName in
# src/obs/metrics.cc) must appear in EXPERIMENTS.md ("Reading the
# metrics"), so a metric added to the code but never written up fails CI.
stat_names="$(
  sed -n 's/.*case Stat::[A-Za-z]*: *return "\([a-z0-9_]*\)";.*/\1/p' \
      src/common/stats.cc
)"
hist_names="$(
  sed -n 's/.*case Hist::[A-Za-z]*: *return "\([a-z0-9_]*\)";.*/\1/p' \
      src/obs/metrics.cc
)"
# An empty roster would pass vacuously: the tables must still be found.
if [ -z "$stat_names" ] || [ -z "$hist_names" ]; then
  echo "FAIL metric roster: no statName/histName table found"
  fail=1
fi
metric_names="$stat_names $hist_names"
for name in $metric_names; do
  if ! grep -q -- "$name" EXPERIMENTS.md; then
    echo "FAIL exported metric $name is not documented in EXPERIMENTS.md"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check failed" >&2
  exit 1
fi
echo "docs check OK (links + flags + required rosters + metric names)"
