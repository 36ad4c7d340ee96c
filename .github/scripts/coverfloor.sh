#!/usr/bin/env bash
# coverfloor.sh <profile> <floor> [file…]
#
# Fails when a Go cover profile is below <floor> percent. With no file
# arguments the floor applies to the profile's total (go tool cover -func).
# Each file argument is a path suffix such as livenode/gossip.go and must
# clear the floor on its own statements, so a well-covered package cannot
# hide an untested file; a suffix that matches nothing reads 0% and fails.
set -euo pipefail
profile=$1 floor=$2
shift 2

check() { # <what> <percent>
  echo "$1 coverage: $2% (floor ${floor}%)"
  awk -v t="$2" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "coverage $2% below the ${floor}% floor for $1" && exit 1
  }
}

if [ $# -eq 0 ]; then
  check "$(basename "$profile") total" \
    "$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
fi
for f in "$@"; do
  check "$f" "$(awk -v f="/$f:" 'index($0, f) { stmts+=$2; if ($3>0) cov+=$2 }
    END { printf "%.1f", stmts ? 100*cov/stmts : 0 }' "$profile")"
done
