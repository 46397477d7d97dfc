#!/usr/bin/env bash
# Regenerates BENCH_perf.json, the repo's checked-in host time:
#
# - the result line perfbench prints for each BENCHMARK.json workload,
#   run with the BENCHMARK.json command at seed 0 for its run_seconds,
#   stored verbatim (a line without "correct": true is refused);
# - the wall time of a `paper` run of Fig. 9 (the 15 scenes x 2
#   policies render matrix at the default knobs) on 1 and 2 workers.
#
#   ci/bench_perf.sh    # about 2 minutes on a 2-core host
#
# benchdiff's wall-clock bands (ci/bench_baseline.json) read this file.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=20
workloads=(frame_live sweep_replay serve_mixed)
perfbench=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)

# perfbench's last output line for workload $1, if it is correct.
result() {
    local line
    line="$("${perfbench[@]}" --workload "$1" --seed 0 --seconds "$seconds" | tail -n 1)"
    case "$line" in
        '{"correct": true,'*) printf '%s' "$line" ;;
        *)
            echo "bench_perf: $1 is not correct: ${line:0:200}" >&2
            exit 1
            ;;
    esac
}

# Wall seconds of the Fig. 9 `paper` run on $1 workers, default knobs.
paper_wall() {
    local start end
    start="$(date +%s.%N)"
    env -u COOPRT_RES -u COOPRT_DETAIL -u COOPRT_SCENES COOPRT_THREADS="$1" \
        cargo bench --offline --quiet -p cooprt-bench --bench paper -- fig09 > /dev/null
    end="$(date +%s.%N)"
    awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }'
}

lines=()
for w in "${workloads[@]}"; do
    echo "bench_perf: perfbench $w (${seconds}s)" >&2
    lines+=("$(result "$w")")
done
cargo bench --offline --quiet -p cooprt-bench --bench paper --no-run
echo "bench_perf: paper fig09 on 1 and 2 workers" >&2
wall_1="$(paper_wall 1)"
wall_2="$(paper_wall 2)"

out=BENCH_perf.json
{
    printf '{\n  "schema_version": 1,\n  "host_parallelism": %s,\n' "$(nproc)"
    printf '  "seed": 0,\n  "seconds": %s,\n' "$seconds"
    for i in "${!workloads[@]}"; do
        printf '  "%s": %s,\n' "${workloads[$i]}" "${lines[$i]}"
    done
    printf '  "paper": {"figures": "fig09", "wall_s_1": %s, "wall_s_2": %s, "speedup": %s}\n}\n' \
        "$wall_1" "$wall_2" "$(awk -v a="$wall_1" -v b="$wall_2" 'BEGIN { printf "%.3f", a / b }')"
} > "$out.tmp"
mv "$out.tmp" "$out"
echo "bench_perf: wrote $out" >&2
