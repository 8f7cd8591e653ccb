#!/usr/bin/env bash
# Runs `cargo test <args>` and fails when the run executed no test.
#
# cargo exits 0 when a test-name filter matches nothing ("running 0
# tests"), so a renamed or deleted test would silently drop out of a CI
# step that selects it by name. This wrapper requires at least one test
# binary to report one or more passed tests.
#
# Usage: .github/scripts/cargo-test-selects.sh -q -p dynmos-protest --test parallel few_fault
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq '^test result: [A-Za-z]+\. [1-9][0-9]* passed' "$log"; then
    echo "error: 'cargo test $*' selected no test" >&2
    exit 1
fi
