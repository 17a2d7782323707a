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
# `service_load` and `tune_model` benches compiling even though CI boxes are
# too noisy to gate on their numbers; that a forced SIMD backend is the one
# the kernel spans dispatch is a deterministic test (tests/simd.rs), not a
# timing floor.
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

echo "== unit tests of the simulator, image and bench crates"
# The root `cargo test -q` runs the root package only; the transfer,
# conversion and bench unit tests live in these crates.
cargo test -q -p simgpu -p imagekit -p sharpness-bench
cargo test -q -p sharpness-bench --features simd

echo "== static access verification sweep (64 configs x 4 shapes)"
cargo run --release -q -p sharpness-bench --bin repro -- --verify-static

echo "== paper figures pinned (repro all vs baselines/repro_output.txt)"
# Figs. 12-17 and Table I are simulated model seconds, deterministic on
# any host: the committed output must reproduce byte for byte.
repro_out=$(mktemp)
cargo run --release -q -p sharpness-bench --bin repro -- all > "$repro_out"
cmp "$repro_out" baselines/repro_output.txt
rm -f "$repro_out"

echo "== tuner bit-agreement sweep (predicted vs executed, 64 configs x shapes x placements x devices)"
# The model-based autotuner's entire claim is that its closed-form cost
# predictor returns `.to_bits()`-identical seconds to executing the
# simulated pipeline. Both walk one frame program, so the command order
# agrees by construction; this sweep proves the timing fold matches what
# the executor's transfers, host stages and commits charge, for the full
# config space on every CI pass.
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

echo "== odd-shape smoke (1001x701 and 97x61 through the CLI, base and optimized)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
{ printf 'P5\n1001 701\n255\n'; head -c $((1001 * 701)) /dev/urandom; } \
    > "$smoke_dir/odd.pgm"
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-all.pgm" \
    --opts all --sanitize --verify-static > /dev/null
# The scalar row-span kernels (`--opts none`) run sanitized here too,
# with static verification.
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-none.pgm" \
    --opts none --sanitize --verify-static > /dev/null
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-cpu.pgm" \
    --cpu > /dev/null
# The base GPU config keeps the reduction on the CPU, so its output must
# match the CPU reference bit-for-bit even on odd shapes.
cmp "$smoke_dir/odd-none.pgm" "$smoke_dir/odd-cpu.pgm"
# Unsanitized runs execute the row-local kernels as two fused host passes
# over windows of rows; sanitized runs keep the per-kernel order. Both
# orders must write the same bytes on the ragged shape.
for opts in all none; do
    ./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-$opts-fused.pgm" \
        --opts "$opts" > /dev/null
    cmp "$smoke_dir/odd-$opts-fused.pgm" "$smoke_dir/odd-$opts.pgm"
done
# A narrow ragged frame: each 1024-element stage-1 group spans about ten
# rows of the 100-wide stride and the last group ends mid-row. Plain runs
# rebuild those pEdge rows inside stage 1 and the tail; sanitized runs
# read the Sobel plane. Both must write the same bytes.
{ printf 'P5\n97 61\n255\n'; head -c $((97 * 61)) /dev/urandom; } \
    > "$smoke_dir/narrow.pgm"
./target/release/sharpen "$smoke_dir/narrow.pgm" "$smoke_dir/narrow-plain.pgm" \
    --opts all > /dev/null
./target/release/sharpen "$smoke_dir/narrow.pgm" "$smoke_dir/narrow-sanitized.pgm" \
    --opts all --sanitize > /dev/null
cmp "$smoke_dir/narrow-plain.pgm" "$smoke_dir/narrow-sanitized.pgm"

echo "== autotune smoke (model-searched schedule on the odd shape, sanitized)"
# --autotune replaces --opts with the model search's winner; the sanitized
# run plus static verification prove the tuned schedule is as safe as the
# hand-picked ones on a shape the paper never measured.
./target/release/sharpen "$smoke_dir/odd.pgm" "$smoke_dir/odd-tuned.pgm" \
    --autotune --sanitize --verify-static > /dev/null

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
# The same stream unsanitized is the path serve_zipf times: fused passes
# on the dispatch pool, small frames inline under the grain. --selfcheck
# byte-compares those outputs against direct execution too.
./target/release/sharpen serve --requests 48 --seed 9 --gap-us 500 \
    --selfcheck > /dev/null

echo "== tuner budget smoke (model search stays under 1 ms per candidate)"
TM_SHAPES=256x256 cargo bench -q -p sharpness-bench --bench tune_model

if [ "$full" -eq 1 ]; then
    echo "== sanitized static-vs-dynamic cross-validation sweep"
    cargo test -q --release --test verify_static -- --ignored
    echo "== exact f32 -> u8 conversion over all 2^32 bit patterns"
    cargo test -q --release -p imagekit -- --ignored
    echo "== full sanitizer sweep (all configs x all sizes)"
    cargo test -q --release --test sanitize -- --ignored
    echo "== full arbitrary-shape sweep (all configs at 1001x701)"
    cargo test -q --release --test arbitrary_shapes -- --ignored
    echo "== fused-pass order vs per-kernel order (all configs, ragged shapes)"
    cargo test -q --release --test fused_passes -- --ignored
    echo "== full SIMD backend equivalence sweep (all configs, sanitized)"
    cargo test -q --release --features simd --test simd -- --ignored
fi

echo "== cargo bench --no-run"
cargo bench --workspace --no-run

echo "CI OK"
