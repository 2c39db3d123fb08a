#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, fully offline.
#
#   scripts/check.sh          # build + tests (+ fmt/clippy when installed)
#   scripts/check.sh --perf   # also run the perf_pipeline regression gate
#
# fmt and clippy are skipped with a notice when the components are not
# installed (minimal toolchains); the build and test gates always run.
set -euo pipefail
cd "$(dirname "$0")/.."

run_perf=false
for arg in "$@"; do
    case "$arg" in
        --perf) run_perf=true ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo build --workspace --offline"
cargo build --workspace --offline

echo "==> cargo test --workspace --offline"
cargo test --workspace --offline --quiet

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "==> cargo fmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

echo "==> cargo build --release (bench binaries, then perfbench)"
cargo build --release --offline -p hetero-bench
# perfbench is a workspace of its own that links the public API, so a
# removed or renamed entry point would otherwise surface only when the
# benchmark runs.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench storm_observed (1 s; conservation, digest-repeat and bound checks)"
# Exits non-zero when any episode breaks conservation, a repeat changes
# the digest, or the in-flight bound is exceeded.
./perfbench/target/release/perfbench --workload storm_observed --seconds 1 --trace 0

echo "==> perf_pipeline --smoke (release; every stage end to end, no gate)"
./target/release/perf_pipeline --smoke

echo "==> audit --smoke (flight-recorder ledger + stall-purity audit)"
./target/release/audit --smoke

echo "==> chaos --smoke (fault-injection degradation sweep)"
./target/release/chaos --smoke

echo "==> telemetry --smoke (span profiler + metrics sink across all systems)"
./target/release/telemetry --smoke

echo "==> engine --smoke (streaming service: open-loop load, bounded-memory runs)"
./target/release/engine --smoke

echo "==> engine --overload-smoke (admission control + brownout under a storm)"
./target/release/engine --overload-smoke

echo "==> engine --serve-smoke (live scrape endpoint + Perfetto round-trip)"
./target/release/engine --serve-smoke

echo "==> engine --perfetto (trace artifact schema check)"
perfetto_tmp="$(mktemp -t TRACE_perfetto.XXXXXX.json)"
trap 'rm -f "$perfetto_tmp"' EXIT
./target/release/engine --smoke --system proposed --jobs 1000 --perfetto "$perfetto_tmp"
test -s "$perfetto_tmp"

echo "==> scaling --smoke (many-core sweep through 64 cores, indexed loop)"
./target/release/scaling --smoke

echo "==> ann_accuracy --smoke (predictor quality + serving-path agreement)"
./target/release/ann_accuracy --smoke

if $run_perf; then
    echo "==> perf_pipeline gate (release)"
    ./target/release/perf_pipeline
fi

echo "All checks passed."
