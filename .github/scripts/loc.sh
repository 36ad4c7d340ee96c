#!/usr/bin/env bash
# loc.sh [root]
#
# Prints the non-blank lines of non-test Go source in each package
# directory under root (default: the current directory), then their total.
# bench/ is a module of its own and is left out, as are hidden directories.
# Comments count; blank lines and _test.go files do not. Run it on two
# checkouts and subtract the totals for a change's net line count.
set -euo pipefail
cd "${1:-.}"
find . -path ./bench -prune -o -path './.*' -prune -o \
  -name '*.go' ! -name '*_test.go' -type f -print0 |
  xargs -0 awk 'NF { d = FILENAME; sub(/\/[^\/]*$/, "", d); sub(/^\.\/?/, "", d)
                     n[d == "" ? "." : d]++; t++ }
                END { for (d in n) printf "%7d %s\n", n[d], d
                      printf "%7d total\n", t }' |
  LC_ALL=C sort -k2 | awk '$2 != "total"; $2 == "total" { total = $0 } END { print total }'
