#!/usr/bin/env bash
# Count non-test library lines: every .rs file under the src of the nine
# library crates (encoding, exec, flux, framework, labelcore, schemes,
# store, workloads, xmldom), each cut at the `#[cfg(test)]` line that
# opens its `mod tests`. Prints two totals: every such line, and the
# code lines among them (those neither blank nor comment-only), so a
# change that only deletes comments shows in the first figure alone.
#
#   scripts/loc.sh
#
# A `#[cfg(test)]` item outside `mod tests` (a test seam beside the code
# it serves) counts as library code, like the lines after it.

set -euo pipefail
cd "$(dirname "$0")/.."

find crates/{encoding,exec,flux,framework,labelcore,schemes,store,workloads,xmldom}/src \
  -name '*.rs' -exec awk '
    FNR == 1 { cut = 0; prev = "" }
    !cut && /^[[:space:]]*mod tests/ && prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1; lines--; code-- }
    !cut { lines++; if ($0 !~ /^[[:space:]]*(\/\/.*)?$/) code++ }
    { prev = $0 }
    END { print lines + 0, code + 0 }
  ' {} + | awk '
    { lines += $1; code += $2 }
    END {
      print lines " lines in the nine library crates'"'"' src, each file cut where its #[cfg(test)] mod tests opens"
      print code " code lines among them: neither blank nor comment-only"
    }'
