#!/usr/bin/env bash
# Static invariant lint — thin wrapper around the token-aware Rust
# implementation in src/bin/lint_invariants.rs (comments and string
# literals are lexed away before any rule matches; see that file for the
# eight rules and their rationale). Kernel cost has no lint rule: it is
# the access declaration `CommandQueue::run` takes, checked by the types.
#
#   ./scripts/lint_invariants.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --bin lint_invariants
