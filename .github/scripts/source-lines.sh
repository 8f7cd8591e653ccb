#!/usr/bin/env bash
# Prints two size counts of the library source, for comparing commits.
#
# 1. Non-test lines: every `.rs` file under `crates/*/src` and `src/`,
#    counted up to its first top-level `#[cfg(test)]`, leaving out the
#    test-only `crates/netlist/src/compile/cone_tests.rs`.
# 2. Library `pub fn`s: lines that declare a `pub fn` in `crates/*/src`,
#    outside the binaries (`bin/`, `main.rs`), per crate and in total.
#
# Informational only: it never fails on a count.
#
# Usage: .github/scripts/source-lines.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/../.."

lines=0
while IFS= read -r file; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    lines=$((lines + n))
done < <(find crates/*/src src -name '*.rs' ! -path 'crates/netlist/src/compile/cone_tests.rs' | sort)
echo "non-test source lines: $lines"

total=0
echo "library pub fns:"
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' ! -path '*/bin/*' ! -name main.rs -print0 \
        | xargs -0 cat | grep -cE '^[[:space:]]*pub fn ' || true)
    printf '  %-10s %4d\n' "$crate" "$n"
    total=$((total + n))
done
echo "  total      $total"
