#!/usr/bin/env bash
# Run name-selected tests, failing if the selection is hollow.
#
#   ci/gotest-run.sh '<-run regexp>' [go test flags...] ./pkg/...
#
# `go test -run` exits 0 when its pattern matches nothing, so renaming a test
# silently turns a name-selected proof step into a no-op. This wrapper lists
# before it runs: every top-level |-alternative of the pattern must name at
# least one test in the given packages.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=$1
shift
pkgs=() flags=()
for arg in "$@"; do
  case $arg in
    ./*) pkgs+=("$arg") ;;
    *) flags+=("$arg") ;;
  esac
done

IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "${pkgs[@]}")
  if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<< "$listed"; then
    echo "gotest-run: '$alt' matches no test in ${pkgs[*]} — renamed or deleted?" >&2
    exit 1
  fi
done
exec go test -run "$pattern" "${flags[@]}" "${pkgs[@]}"
