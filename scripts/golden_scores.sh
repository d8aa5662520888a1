#!/usr/bin/env bash
# Golden-bytes check of the MI and chi-squared scorers through the trigen
# binary: the scan of `generate --snps 40 --samples 1000 --seed 7` (N = 1000
# is not a power of two) under --objective mi and chi2 must print the same
# CSV rows and write the same shard result file as the committed copies in
# tests/golden/, byte for byte.  The shard file's hexfloat scores pin every
# bit, so a scorer change that moves one score by one ulp fails here.  Only
# the lines that carry a timing (the CSV's `#` comments, the shard file's
# `seconds` line) are left out of the comparison.
#
# The golden files were written by this same pipeline from a build that
# scored MI with the std::log reference formula.
#
# usage: scripts/golden_scores.sh path/to/trigen path/to/tests/golden
set -euo pipefail

TRIGEN=${1:?usage: golden_scores.sh path/to/trigen path/to/golden}
GOLDEN=${2:?usage: golden_scores.sh path/to/trigen path/to/golden}
TRIGEN=$(realpath "$TRIGEN")
GOLDEN=$(realpath "$GOLDEN")
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$TRIGEN" generate d.tg --snps 40 --samples 1000 --seed 7 > /dev/null

status=0
for objective in mi chi2; do
  "$TRIGEN" scan d.tg --objective "$objective" --top 50 --threads 2 \
    --out "$objective.shard" | grep -v '^#' > "$objective.csv"
  grep -v '^seconds ' "$objective.shard" > "$objective.shard.cmp"
  for f in "$objective.csv" "$objective.shard"; do
    got=$f
    [ "$f" = "$objective.shard" ] && got=$f.cmp
    if cmp "$got" "$GOLDEN/scan40x1000-$f"; then
      echo "$objective: $f matches the golden bytes"
    else
      echo "$objective: $f differs from $GOLDEN/scan40x1000-$f" >&2
      diff "$got" "$GOLDEN/scan40x1000-$f" >&2 || true
      status=1
    fi
  done
done
exit $status
