#!/usr/bin/env bash
# Dead-code audit: list the library functions that no production binary
# links (BUILDING.md, "Dead-code audit").
#
# Builds every production binary (effitest_cli, the bench/ and examples/
# executables and perfbench's effitest_perfbench) unoptimized with one
# section per function, lets the linker drop unreferenced sections, and
# prints the effitest:: functions the library defines that no binary kept.
# The test suites are left out on purpose: a function that only its own
# test calls is exactly what the audit is for.
#
# Usage:
#   tools/audit_unlinked.sh [--source DIR] [--build DIR] [--jobs N]
#                           [--check ALLOW_FILE]
#
#   --source DIR   source tree to audit (default: this script's repo)
#   --build DIR    build directory prefix (default: build-audit); the main
#                  tree builds into DIR, perfbench into DIR-perfbench
#   --jobs N       parallel build jobs (default: 2)
#   --check FILE   compare against an allow file instead of printing: each
#                  non-comment line is "<kind> <symbol>", kind hook or
#                  oracle. Exits 1 if an unlinked function is not listed,
#                  a kind is unknown, or a listed function is stale (linked
#                  again, or gone): the file lists exactly the unlinked set.
set -euo pipefail

source_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir=build-audit
jobs=2
allow_file=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --source) source_dir="$2"; shift 2 ;;
    --build) build_dir="$2"; shift 2 ;;
    --jobs) jobs="$2"; shift 2 ;;
    --check) allow_file="$2"; shift 2 ;;
    *) echo "audit_unlinked.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

flags="-O0 -ffunction-sections -fdata-sections"
{
  cmake -S "$source_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=Debug \
    -DEFFITEST_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build "$build_dir" -j "$jobs"
  cmake -S "$source_dir/perfbench" -B "$build_dir-perfbench" \
    -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build "$build_dir-perfbench" -j "$jobs" --target effitest_perfbench
} >&2

# Functions (T) and inline/template instances (W) the library defines ...
nm -C --defined-only "$build_dir/libeffitest.a" |
  awk '$2 ~ /^[TW]$/ {$1=$2=""; print substr($0,3)}' |
  grep '^effitest::' | sort -u > "$build_dir/lib.syms"
# ... against everything the production binaries kept after --gc-sections.
find "$build_dir/tools" "$build_dir/bench" "$build_dir/examples" \
     "$build_dir-perfbench" -maxdepth 1 -type f -executable |
  xargs -n1 nm -C --defined-only |
  awk '$2 ~ /^[TtWw]$/ {$1=$2=""; print substr($0,3)}' |
  sort -u > "$build_dir/bin.syms"
# Defined in src/, linked by no binary.
comm -23 "$build_dir/lib.syms" "$build_dir/bin.syms" > "$build_dir/unlinked.syms"

if [[ -z "$allow_file" ]]; then
  cat "$build_dir/unlinked.syms"
  echo "$(wc -l < "$build_dir/unlinked.syms") unlinked function(s)" >&2
  exit 0
fi

status=0
bad_kinds=$(grep -v '^[[:space:]]*\(#\|$\)' "$allow_file" |
  grep -v '^\(hook\|oracle\) ' || true)
if [[ -n "$bad_kinds" ]]; then
  echo "audit: allow-file lines without a hook/oracle kind:" >&2
  echo "$bad_kinds" >&2
  status=1
fi
grep '^\(hook\|oracle\) ' "$allow_file" | cut -d' ' -f2- |
  sort -u > "$build_dir/allowed.syms"
new=$(comm -23 "$build_dir/unlinked.syms" "$build_dir/allowed.syms")
stale=$(comm -13 "$build_dir/unlinked.syms" "$build_dir/allowed.syms")
if [[ -n "$new" ]]; then
  echo "audit: unlinked functions missing from $allow_file (delete them," >&2
  echo "or list each with its kind: hook or oracle):" >&2
  echo "$new" >&2
  status=1
fi
if [[ -n "$stale" ]]; then
  echo "audit: listed in $allow_file but linked or gone (prune the line):" >&2
  echo "$stale" >&2
  status=1
fi
echo "audit: $(wc -l < "$build_dir/unlinked.syms") unlinked function(s)," \
  "$(wc -l < "$build_dir/allowed.syms") allowed" >&2
exit "$status"
