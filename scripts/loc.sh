#!/usr/bin/env bash
# Count non-test library lines: every .rs file under the src of the nine
# library crates (encoding, exec, flux, framework, labelcore, schemes,
# store, workloads, xmldom), each cut at the `#[cfg(test)]` line that
# opens its `mod tests`. Prints the total.
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
    !cut && /^[[:space:]]*mod tests/ && prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1; lines-- }
    !cut { lines++ }
    { prev = $0 }
    END { print lines + 0 }
  ' {} + | awk '{ total += $1 } END { print total }'
