#!/usr/bin/env bash
# Checks that the default scan rung changes speed, not output: `trigen scan`
# (V5, the prefix-plane ladder) and `trigen scan --version 4` (the direct
# vector walk) must print the same CSV rows and write the same shard result
# file, byte for byte, at orders 3 and 4 on a small generated panel.  Only
# the lines that carry a timing (the CSV's `#` comments, the shard file's
# `seconds` line) are left out of the comparison, as in golden_scores.sh.
#
# usage: scripts/default_version_bytes.sh path/to/trigen
set -euo pipefail

TRIGEN=${1:?usage: default_version_bytes.sh path/to/trigen}
TRIGEN=$(realpath "$TRIGEN")
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$TRIGEN" generate d.tg --snps 36 --samples 700 --seed 11 > /dev/null

status=0
for order in 3 4; do
  for rung in default v4; do
    flags=()
    [ "$rung" = v4 ] && flags=(--version 4)
    "$TRIGEN" scan d.tg --order "$order" --top 40 --threads 3 "${flags[@]}" \
      --out "$rung.shard" | grep -v '^#' > "$rung.csv"
    grep -v '^seconds ' "$rung.shard" > "$rung.shard.cmp"
  done
  for f in csv shard.cmp; do
    if cmp "default.$f" "v4.$f"; then
      echo "order $order: default and --version 4 $f match"
    else
      echo "order $order: default and --version 4 $f differ" >&2
      diff "default.$f" "v4.$f" >&2 || true
      status=1
    fi
  done
done
exit $status
