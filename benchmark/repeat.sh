#!/usr/bin/env bash
# Runs the benchmark's workloads several times, one seed per run, and
# prints each metric's median, quartiles and spread: the distance
# between the first and third quartile as a share of the median, as
# Python's statistics.quantiles(values, n=4) gives them. A spread above
# a third of the metric's bound in BENCHMARK.json is flagged.
#
# usage: benchmark/repeat.sh [-n runs] [-s seconds] [-t 0|1] [-w "w1 w2"] [root ...]
#
# Each root is a checkout of the repository; the default is the one
# holding this script. Given a parent and a change checkout, the runs
# alternate between them seed by seed, each seed in the opposite order
# to the one before, and the last table sets the change's medians
# against the parent's.
set -euo pipefail

here="$(cd "$(dirname "$0")/.." && pwd)"
runs=5
seconds=""
trace=0
workloads=""
while getopts "n:s:t:w:" opt; do
    case "$opt" in
        n) runs="$OPTARG" ;;
        s) seconds="$OPTARG" ;;
        t) trace="$OPTARG" ;;
        w) workloads="$OPTARG" ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
roots=("$@")
if [ ${#roots[@]} -eq 0 ]; then
    roots=("$here")
fi

spec="$here/BENCHMARK.json"
if [ -z "$seconds" ]; then
    seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
fi
if [ -z "$workloads" ]; then
    workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
fi

out="$here/benchmark/out/repeat-$$"
mkdir -p "$out"
bins=()
commits=()
for root in "${roots[@]}"; do
    root="$(cd "$root" && pwd)"
    # Each checkout builds into its own target directory, so a parent
    # and a change never overwrite each other's binary.
    CARGO_TARGET_DIR="$root/benchmark/target" \
        cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
    bins+=("$root/benchmark/target/release/ecco-benchmark")
    commits+=("$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)")
done

for seed in $(seq 1 "$runs"); do
    order=$(seq 0 $((${#roots[@]} - 1)))
    if [ $((seed % 2)) -eq 0 ]; then
        order=$(echo "$order" | sort -rn)
    fi
    for i in $order; do
        for w in $workloads; do
            echo "root $i (${commits[$i]}) $w seed $seed" >&2
            if ! (cd "${roots[$i]}" && ECCO_GIT_COMMIT="${commits[$i]}" "${bins[$i]}" \
                --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace") \
                > "$out/run.txt"; then
                echo "  failed; its output is in $out/run.txt" >&2
            fi
            tail -n 1 "$out/run.txt" >> "$out/$i-$w.jsonl"
        done
    done
done

python3 - "$spec" "$out" "$trace" "${#roots[@]}" $workloads <<'EOF'
import json, statistics, sys

spec_path, out, trace, nroots, workloads = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5:]
spec = json.load(open(spec_path))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
medians = {}
for i in range(nroots):
    print(f"\nroot {i}")
    print(f"{'workload':<11} {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for w in workloads:
        rows = [json.loads(l) for l in open(f"{out}/{i}-{w}.jsonl") if l.startswith("{")]
        failed = sum(r["failed"] for r in rows)
        wrong = sum(not r["correct"] for r in rows)
        if failed or wrong:
            print(f"{w:<11} {wrong} runs not correct, {failed} failed operations")
        names = rows[0]["metrics"].keys() if rows else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if trace == "0" and name != "setup_s" and spread > bounds.get(name, 1.0) / 3:
                flag = f"  above a third of its bound {bounds[name]}"
            medians[(i, w, name)] = med
            print(f"{w:<11} {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>7.2%}{flag}")
if nroots == 2 and trace == "0":
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print("\nchange (root 1) against parent (root 0): worse by, as a share of the parent's median")
    for w in workloads:
        for name, bound in bounds.items():
            a, b = medians.get((0, w, name)), medians.get((1, w, name))
            if a is None or b is None or not a:
                continue
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            verdict = "over its bound" if worse > bound else "within its bound"
            print(f"{w:<11} {name:<34} {worse:>8.2%}  {verdict} {bound}")
EOF
