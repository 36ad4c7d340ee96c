#!/usr/bin/env bash
# figdiff.sh <cmd/figures args>
#
# Runs cmd/figures with the given arguments and compares each block it
# prints (a title line and the lines after it, up to a blank line) with the
# block of the same title in the committed figures_output.txt. The
# "(fig N regenerated in Ns)" / "(ablation aN done in Ns)" wall-time lines
# and the committed file's "#" header are left out. Exits non-zero if any
# block differs or has no committed counterpart.
#
#	bash .github/scripts/figdiff.sh -fig 6
#	bash .github/scripts/figdiff.sh -fig all    # ~5 min
set -euo pipefail
cd "$(dirname "$0")/../.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# blocks <file> <dir>: writes block k of <file> to <dir>/k and "k<TAB>title"
# lines to <dir>/index.
blocks() {
	mkdir -p "$2"
	: > "$2/index"
	awk -v dir="$2" '
		/^#/ || /^\(.* in [0-9hms.]+\)$/ { next }
		/^$/ { if (out != "") close(out); out = ""; next }
		out == "" { out = dir "/" ++n; print n "\t" $0 >> (dir "/index") }
		{ print > out }
	' "$1"
}

go run ./cmd/figures "$@" > "$tmp/new.txt"
blocks figures_output.txt "$tmp/old"
blocks "$tmp/new.txt" "$tmp/new"
if [ ! -s "$tmp/new/index" ]; then
	echo "figdiff: cmd/figures $* printed no block" >&2
	exit 1
fi

status=0
while IFS=$'\t' read -r k title; do
	m=$(awk -F'\t' -v t="$title" '$2 == t { print $1; exit }' "$tmp/old/index")
	if [ -z "$m" ]; then
		echo "figdiff: figures_output.txt has no block titled: $title" >&2
		status=1
	elif ! diff -u --label "figures_output.txt" --label "cmd/figures $*" "$tmp/old/$m" "$tmp/new/$k"; then
		status=1
	else
		echo "figdiff: same: $title"
	fi
done < "$tmp/new/index"
exit $status
