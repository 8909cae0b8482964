#!/usr/bin/env bash
# Dead-export scan: list every value exported from lib/ that has no caller
# outside its own module.
#
# For each `val NAME` in lib/**/*.mli, NAME is searched as a whole word in
# the OCaml sources under lib bin test bench examples tools, leaving out
# the module's own .ml and .mli.  A name found nowhere else is printed as
# `FILE:LINE: NAME`.  A clean tree prints nothing; the exit status is 0
# either way, so a caller decides what output means (CI fails on any).
#
# Run from the repository root:  bash tools/dead_exports.sh
set -eu

roots=(lib bin test bench examples tools)

for mli in $(find lib -name '*.mli' | LC_ALL=C sort); do
  ml="${mli%i}"
  { grep -n -E '^[[:space:]]*val[[:space:]]+[a-z_]' "$mli" || true; } |
    while IFS=: read -r line text; do
      name=$(sed -E 's/^[[:space:]]*val[[:space:]]+([A-Za-z0-9_'"'"']+).*/\1/' <<<"$text")
      users=$(grep -rlw --include='*.ml' --include='*.mli' -e "$name" "${roots[@]}" |
        grep -v -x -F -e "$mli" -e "$ml" || true)
      if [ -z "$users" ]; then echo "$mli:$line: $name"; fi
    done
done
