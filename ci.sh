#!/usr/bin/env bash
# Local CI: formatting, lints, release build, full test suite.
# The workspace has no external dependencies, so everything runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links, which clippy does not check)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline --quiet --workspace

echo "==> perfbench tests (its own workspace, which --workspace skips)"
cargo test --offline --quiet --manifest-path perfbench/Cargo.toml

# The last line of perfbench's output is its JSON result; "correct" is
# false when any pin, replay or response check failed.
perfbench_smoke() {
    local result
    result="$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 0 --seconds 1 | tail -n 1)"
    case "$result" in
        '{"correct": true,'*) ;;
        *)
            echo "perfbench $1 smoke failed: ${result:0:200}"
            exit 1
            ;;
    esac
}

echo "==> perfbench sweep_replay smoke (32 pinned sweep cells, replay = live)"
perfbench_smoke sweep_replay

echo "==> perfbench frame_live smoke (30 pinned live-frame cells with image hashes)"
perfbench_smoke frame_live

echo "==> perfbench serve_mixed smoke (the service under load, checked responses)"
perfbench_smoke serve_mixed

echo "==> simcheck --seeds 64 (differential fuzzing smoke)"
cargo run --offline --release --example simcheck -- \
    --seeds 64 --json-seeds 256 --serve-seeds 8 --trace-seeds 8 --reorder-seeds 8 \
    --predict-seeds 8 --query-seeds 8 --step-seeds 8

echo "==> query smoke (spatial queries on the RT unit, oracle-exact)"
# Every run checks the simulated answers against the brute-force
# oracle; --compare additionally asserts baseline and CoopRT agree.
cargo run --offline --release --bin cooprt -- query qclu \
    --shader rad --detail 8 --count 256 --compare
cargo run --offline --release --bin cooprt -- query qamr \
    --detail 8 --count 256

echo "==> serve smoke (HTTP service end to end, observability asserts)"
# Besides the render/cache identity checks, serve --smoke validates the
# Prometheus exposition with the in-tree validator, fetches a request
# span trail as Chrome trace JSON, and asserts every captured
# structured-log line parses with the in-tree JSON parser.
cargo run --offline --release --bin cooprt -- serve --smoke

echo "==> benchdiff (pins fail, wall-clock bands warn)"
# Compares the checked-in BENCH reports against ci/bench_baseline.json.
# A pin (a simulated count or paper number, zero-width band) that
# drifted, or a metric that no longer resolves, fails: exit 1. A
# wall-clock band that regressed only warns, since host time depends on
# the hardware that measured it: exit 3. Re-pin with `--write-baseline`
# when a change is intentional.
status=0
cargo bench --offline -p cooprt-bench --bench benchdiff || status=$?
case "$status" in
    0) ;;
    3) echo "WARN: benchdiff wall-clock bands regressed against ci/bench_baseline.json" ;;
    *)
        echo "benchdiff: a pin drifted or a metric is missing (exit $status)"
        exit 1
        ;;
esac

echo "==> telemetry smoke (trace_export --check)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --offline --release --example trace_export -- \
    --scene wknd --policy cooprt --res 32 --detail 8 \
    --out-dir "$smoke_dir" --check
test -s "$smoke_dir/wknd_cooprt.trace.json"
test -s "$smoke_dir/wknd_cooprt.metrics.json"

echo "==> trace record/replay smoke (record once, replay --verify)"
cargo run --offline --release --bin cooprt -- trace record wknd \
    --res 32 --detail 4 --out "$smoke_dir/wknd.cprt"
cargo run --offline --release --bin cooprt -- trace info "$smoke_dir/wknd.cprt"
cargo run --offline --release --bin cooprt -- trace replay "$smoke_dir/wknd.cprt" \
    --policy cooprt --verify
cargo run --offline --release --bin cooprt -- trace replay "$smoke_dir/wknd.cprt" \
    --policy cooprt --reorder morton --verify

echo "CI green."
