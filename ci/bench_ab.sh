#!/usr/bin/env bash
# A/B host-time comparison of two revisions with BENCHMARK.json's
# command:
#
#   ci/bench_ab.sh BASE CHANGE [--pairs N] [--seconds S] [--workload W[,W...]]
#                  [--seed K[,K...]] [--out FILE]
#
# - exports both revisions with `git archive` into two fresh trees whose
#   paths have equal length (code layout alone moves `setup_s`, so both
#   sides build the same way);
# - builds each tree's perfbench once;
# - for every workload and seed, runs N pairs of perfbench --workload W
#   --seed K --seconds S, alternating which side runs first, and refuses
#   any result line without "correct": true;
# - records each run's minor page faults and system CPU seconds (the
#   cargo run wrapper's share included, the same on both sides);
# - judges the runs with `benchdiff --ab`: per end-to-end metric, each
#   side's median and IQR, the change/base ratio, the pairs the change
#   won and a verdict from BENCHMARK.json's bound and direction (a gain
#   needs at least 10 pairs), plus each side's median faults and system
#   time (no verdict), printed and written as a JSON report naming both
#   revisions, nproc and N.
#
# Defaults: 5 pairs, 20 s runs, all three workloads, seed 0, report
# BENCH_ab.json. Exit 1 when a metric is worse than its bound or too
# noisy to judge. The trees live under ${TMPDIR:-/tmp} and are removed
# on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_rev="$(git rev-parse --verify "$1^{commit}")"
change_rev="$(git rev-parse --verify "$2^{commit}")"
shift 2
pairs=5
seconds=20
workloads=frame_live,sweep_replay,serve_mixed
seeds=0
out="$PWD/BENCH_ab.json"
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        --workload) workloads="$2" ;;
        --seed) seeds="$2" ;;
        --out) out="$(realpath -m "$2")" ;;
        *) usage ;;
    esac
    shift 2
done

root="$(mktemp -d "${TMPDIR:-/tmp}/cooprt-ab.XXXXXX")"
trap 'rm -rf "$root"' EXIT
runs="$root/runs.jsonl"
: > "$runs"

# Equal-length tree paths for the two sides.
declare -A rev=([base]="$base_rev" [change]="$change_rev")
declare -A tree=([base]="$root/base" [change]="$root/chng")
for side in base change; do
    mkdir "${tree[$side]}"
    git archive "${rev[$side]}" | tar -x -C "${tree[$side]}"
    echo "bench_ab: building $side (${rev[$side]:0:12})" >&2
    (cd "${tree[$side]}" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

clk_tck="$(getconf CLK_TCK)"

# Reads this shell's totals over its reaped children into `totals`:
# totals[8] is minor faults and totals[14] system time in clock ticks
# (stat fields 11 and 17, counted after the command name). Read in
# place, not in a command substitution, whose subshell has totals of
# its own.
child_totals() {
    local stat
    read -r stat < "/proc/$BASHPID/stat"
    read -r -a totals <<< "${stat##*)}"
}

# Runs BENCHMARK.json's command in tree $1 for workload $2, seed $3 as
# pair $4 of side $5, and appends its record to the run file, if its
# result is correct.
run() {
    local line minflt stime_ms
    child_totals
    local before=("${totals[@]}")
    line="$(cd "$1" && cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$2" --seed "$3" --seconds "$seconds" | tail -n 1)"
    child_totals
    minflt=$((totals[8] - before[8]))
    stime_ms=$(((totals[14] - before[14]) * 1000 / clk_tck))
    case "$line" in
        '{"correct": true,'*) ;;
        *)
            echo "bench_ab: $2 seed $3 in $1 is not correct: ${line:0:200}" >&2
            exit 1
            ;;
    esac
    printf '{"workload": "%s", "seed": %s, "pair": %s, "side": "%s", "minflt": %s, "stime_s": %d.%03d, "result": %s}\n' \
        "$2" "$3" "$4" "$5" "$minflt" $((stime_ms / 1000)) $((stime_ms % 1000)) "$line" >> "$runs"
}

for w in ${workloads//,/ }; do
    for k in ${seeds//,/ }; do
        for ((i = 1; i <= pairs; i++)); do
            sides=(base change)
            ((i % 2)) || sides=(change base)
            for side in "${sides[@]}"; do
                echo "bench_ab: $w seed $k pair $i/$pairs $side" >&2
                run "${tree[$side]}" "$w" "$k" "$i" "$side"
            done
        done
    done
done

cargo bench --offline --quiet -p cooprt-bench --bench benchdiff -- --ab "$runs" \
    --base "$base_rev" --change "$change_rev" --nproc "$(nproc)" --pairs "$pairs" \
    --seconds "$seconds" --out "$out"
