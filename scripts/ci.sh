#!/usr/bin/env bash
# Repo CI gate: formatting, lints, tier-1 tests, and bench compilation.
#
#   ./scripts/ci.sh          # fast gate (includes the token-aware Rust lint,
#                            # the static access-verification sweep, the
#                            # tuner's predicted-vs-executed agreement sweep,
#                            # and the end-to-end benchmark's seed-2015 check)
#   ./scripts/ci.sh --full   # also run the sanitized static-vs-dynamic
#                            # cross-validation sweep and the full sanitizer
#                            # sweep (64 configs x four sizes; minutes)
#
# Tier-1 (per ROADMAP.md) is `cargo build --release && cargo test -q` at the
# workspace root, run twice: default features and `--features simd` (the
# explicit host-SIMD kernel backends must never change results, so the whole
# suite is the equivalence oracle). `cargo bench --no-run` keeps the
# wall-clock benches compiling even though CI boxes are too noisy to gate on
# their numbers; `--full` adds a 0.9x sanity floor for the SIMD backend.
set -euo pipefail
cd "$(dirname "$0")/.."

full=0
if [ "${1:-}" = "--full" ]; then
    full=1
fi

echo "== lint_invariants"
./scripts/lint_invariants.sh

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== feature matrix: tier-1 again with --features simd"
cargo clippy --all-targets --features simd -- -D warnings
cargo clippy -p sharpness-bench --all-targets --features simd -- -D warnings
cargo build --release --features simd
cargo test -q --features simd
cargo test -q -p sharpness-core --features simd

echo "== static access verification sweep (64 configs x 4 shapes x 2 schedules)"
cargo run --release -q -p sharpness-bench --bin repro -- --verify-static

echo "== tuner bit-agreement sweep (predicted vs executed, 64 configs x shapes x schedules x devices)"
# The model-based autotuner's entire claim is that its closed-form cost
# predictor returns `.to_bits()`-identical seconds to executing the
# simulated pipeline. Kernel counters agree by construction (both sides
# use the kernels' own declarations); this sweep proves the replayed
# command order for the full config space on every CI pass.
cargo test -q --release --test tune -- --ignored

echo "== metric baselines"
./scripts/check_metrics.sh

echo "== end-to-end benchmark package tests"
cargo test --offline -q --manifest-path e2ebench/Cargo.toml

echo "== end-to-end benchmark seed-2015 check (one short run per workload)"
# Each run compares its output hash and simulated-time bits with the
# values stored for seed 2015 and exits non-zero on any difference, so a
# pixel or cost drift fails CI here, not only the benchmark gate. The
# command is the one BENCHMARK.json declares.
for workload in cli_1024 cli_ragged stream_4096 serve_zipf; do
    cargo run --offline --quiet --release --manifest-path e2ebench/Cargo.toml \
        --bin bench -- --workload "$workload" --seed 2015 --seconds 1 --trace 0 \
        > /dev/null
done

echo "== odd-shape smoke (1001x701 through the CLI, base and optimized)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
{ printf 'P5\n1001 701\n255\n'; head -c $((1001 * 701)) /dev/urandom; } \
    > "$smoke_dir/odd.pgm"
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-all.pgm" \
    --opts all --sanitize --verify-static > /dev/null
# The scalar row-span kernels (`--opts none`) run sanitized here too,
# monolithic and banded into 16-row slices, each with static verification.
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-none.pgm" \
    --opts none --sanitize --verify-static > /dev/null
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-none-banded.pgm" \
    --opts none --banded=7 --sanitize --verify-static > /dev/null
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-cpu.pgm" \
    --cpu > /dev/null
# The base GPU config keeps the reduction on the CPU, so its output must
# match the CPU reference bit-for-bit even on odd shapes, in both schedules.
cmp "$smoke_dir/odd-none.pgm" "$smoke_dir/odd-none-banded.pgm"
cmp "$smoke_dir/odd-none.pgm" "$smoke_dir/odd-cpu.pgm"

echo "== autotune smoke (model-searched schedule on the odd shape, sanitized)"
# --autotune replaces --opts with the model search's winner; the sanitized
# run plus static verification prove the tuned schedule is as safe as the
# hand-picked ones on a shape the paper never measured.
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-tuned.pgm" \
    --autotune --sanitize --verify-static > /dev/null

echo "== banded smoke (sanitized banded run is byte-identical to monolithic)"
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-banded.pgm" \
    --opts all --banded --sanitize --verify-static > /dev/null
cmp "$smoke_dir/odd-all.pgm" "$smoke_dir/odd-banded.pgm"

echo "== span trace check (emitted Chrome trace parses; span tree nests)"
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-traced.pgm" \
    --opts all --trace "$smoke_dir/trace.json" --explain > /dev/null
./target/release/trace_check "$smoke_dir/trace.json"

echo "== service smoke (seeded load, sanitized, byte-compared vs direct)"
# A small deterministic request stream through the sharpen service:
# --sanitize sweeps every served dispatch, --selfcheck byte-compares each
# served output against direct PipelinePlan execution of the same request.
./target/release/sharpen serve --requests 48 --seed 9 --gap-us 500 \
    --sanitize --selfcheck > /dev/null

echo "== perf ledger (small bench append + recent-window-vs-history check)"
# Appends to a scratch copy of the committed ledger so CI never dirties
# the tree; the check still validates the committed history plus one
# fresh run. The threshold is loose (0.6) because CI boxes are noisy —
# the tight trend analysis happens on developer machines via
# `perf_ledger --check` against baselines/LEDGER.jsonl.
cp baselines/LEDGER.jsonl "$smoke_dir/LEDGER.jsonl"
MP_SIZES=256 MP_FRAMES=3 MP_OUT="$smoke_dir/mp_ledger.json" \
    LEDGER_OUT="$smoke_dir/LEDGER.jsonl" \
    cargo bench -q -p sharpness-bench --bench megapass_wallclock > /dev/null
TP_WIDTH=256 TP_FRAMES=4 TP_OUT="$smoke_dir/tp_ledger.json" \
    LEDGER_OUT="$smoke_dir/LEDGER.jsonl" \
    cargo bench -q -p sharpness-bench --bench throughput_wallclock > /dev/null
SV_REQUESTS=48 SV_OUT="$smoke_dir/sv_ledger.json" \
    LEDGER_OUT="$smoke_dir/LEDGER.jsonl" \
    cargo bench -q -p sharpness-bench --bench service_load > /dev/null
TM_SHAPES=256x256 TM_OUT="$smoke_dir/tm_ledger.json" \
    LEDGER_OUT="$smoke_dir/LEDGER.jsonl" \
    cargo bench -q -p sharpness-bench --bench tune_model > /dev/null
cargo run --release -q -p sharpness-bench --bin perf_ledger -- \
    --check --path "$smoke_dir/LEDGER.jsonl" --threshold 0.6

if [ "$full" -eq 1 ]; then
    echo "== sanitized static-vs-dynamic cross-validation sweep"
    cargo test -q --release --test verify_static -- --ignored
    echo "== full sanitizer sweep (all configs x all sizes)"
    cargo test -q --release --test sanitize -- --ignored
    echo "== full arbitrary-shape sweep (all configs at 1001x701)"
    cargo test -q --release --test arbitrary_shapes -- --ignored
    echo "== full banded equivalence sweep (all configs, banded vs monolithic)"
    cargo test -q --release --test banded -- --ignored
    echo "== full SIMD backend equivalence sweep (all configs, sanitized)"
    cargo test -q --release --features simd --test simd -- --ignored
    echo "== SIMD wall-clock smoke (monolithic avx2/sse2 vs autovec at 1024^2)"
    # Not a perf gate on absolute numbers (CI boxes are noisy) — only a
    # sanity floor: the explicit backend must not be slower than 0.9x the
    # autovectorized spans, which would mean dispatch is broken.
    MP_SIZES=1024 MP_FRAMES=5 MP_OUT="$smoke_dir/bench_smoke.json" \
        LEDGER_OUT="$smoke_dir/LEDGER.jsonl" \
        cargo bench -q -p sharpness-bench --features simd \
        --bench megapass_wallclock > /dev/null
    awk -F'"' '
        /"schedule": "monolithic"/ && !ref_seen { ref_seen = 1; next }
        /"schedule": "monolithic"/ && ref_seen && !checked {
            checked = 1
            split($0, a, "speedup_vs_monolithic\": ")
            split(a[2], b, "}")
            if (b[1] + 0 < 0.9) {
                printf "SIMD smoke FAILED: monolithic simd speedup %s < 0.9x scalar\n", b[1]
                exit 1
            }
            printf "SIMD smoke OK: monolithic simd speedup %sx\n", b[1]
        }
        END {
            if (!checked) {
                print "SIMD smoke FAILED: no simd monolithic row in bench JSON"
                exit 1
            }
        }
    ' "$smoke_dir/bench_smoke.json"
fi

echo "== cargo bench --no-run"
cargo bench --workspace --no-run

echo "CI OK"
