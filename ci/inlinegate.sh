#!/usr/bin/env bash
# Inline gate: every simdebug tripwire inlines in a release build.
#
#   ci/inlinegate.sh
#
# A tripwire is a function named debug<Name> in internal/sim, internal/netsim
# or internal/routing whose body starts with `if !sim.Debug { return }`. With
# Debug false the compiler drops the rest of the body, the function inlines,
# and the hot path that calls it compiles to no call at all. A tripwire
# written without the guard, or with work before it, stops inlining; this
# gate fails on it, naming the function, instead of letting every hop pay a
# call. Runs under `make vet`.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(internal/sim internal/netsim internal/routing)
defs=$(grep -rnE --include='*.go' --exclude='*_test.go' \
  '^func (\([^)]*\) )?debug[A-Z][A-Za-z]*\(' "${pkgs[@]}" | cut -d: -f1,2 | sort)
if [ -z "$defs" ]; then
  echo "inlinegate: no debug* function found in ${pkgs[*]}" >&2
  exit 1
fi
inlinable=$(go build -gcflags=-m "${pkgs[@]/#/./}" 2>&1 |
  awk -F: '$4 ~ /^ can inline / { print $1 ":" $2 }' | sort -u)
missing=$(comm -23 <(echo "$defs") <(echo "$inlinable"))
if [ -n "$missing" ]; then
  echo "inlinegate: these tripwires do not inline in a release build; start each body with 'if !sim.Debug { return }':" >&2
  for at in $missing; do
    echo "  $at: $(sed -n "${at#*:}p" "${at%:*}")" >&2
  done
  exit 1
fi
echo "inlinegate: $(wc -l <<<"$defs") tripwires inline"
