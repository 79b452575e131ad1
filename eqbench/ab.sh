#!/usr/bin/env bash
# Same-machine A/B of a local git revision against the working tree.
#
#   bash eqbench/ab.sh REV [--workload W] [--pairs N] [--seconds S] [--seed S0]
#
# Exports REV with `git archive` into .bench_build/ab/base, puts the working
# tree's eqbench/ into it (both sides run identical benchmark code), builds
# each side into its own target directory, then runs N pairs (default 10),
# alternating which side goes first. Seeds are S0+1 .. S0+N; both runs of a
# pair use the same seed. Needs no network. Results go to
# $AB_DIR/results.jsonl (default .bench_build/ab) and a summary per metric
# is printed: each side's median and quartiles, and how many pairs the
# working tree won.
set -euo pipefail
rev="${1:?usage: ab.sh REV [--workload W] [--pairs N] [--seconds S] [--seed S0]}"
shift
workload=compile pairs=10 seconds=10 seed0=1000
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed0="$2"; shift 2 ;;
        *) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
root="$(git rev-parse --show-toplevel)"
cd "$root"
dir="$(realpath -m "${AB_DIR:-.bench_build/ab}")"
base="$dir/base"
rm -rf "$base"
mkdir -p "$base"
git archive "$rev" | tar -x -C "$base"
rm -rf "$base/eqbench"
cp -r eqbench "$base/eqbench"
rm -rf "$base/eqbench/target"

echo "building $rev" >&2
CARGO_TARGET_DIR="$dir/target-base" cargo build --release --offline --quiet \
    --manifest-path "$base/eqbench/Cargo.toml"
echo "building working tree" >&2
CARGO_TARGET_DIR="$dir/target-head" cargo build --release --offline --quiet \
    --manifest-path "$root/eqbench/Cargo.toml"

results="$dir/results.jsonl"
: > "$results"
run() { # side seed pair
    local bin="$dir/target-$1/release/eqbench" cwd="$root"
    [ "$1" = base ] && cwd="$base"
    local line
    line="$(cd "$cwd" && "$bin" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 | tail -n 1)"
    echo "{\"side\":\"$1\",\"pair\":$3,\"seed\":$2,\"result\":$line}" >> "$results"
}
for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 1 ]; then
        run base "$seed" "$i"; run head "$seed" "$i"
    else
        run head "$seed" "$i"; run base "$seed" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$results" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
sides = {"base": {}, "head": {}}
for r in rows:
    assert r["result"]["correct"], f"incorrect run: {r}"
    sides[r["side"]][r["pair"]] = r["result"]["metrics"]
pairs = sorted(set(sides["base"]) & set(sides["head"]))
print(f"{'metric':16} {'base median [q1, q3]':>36} {'head median [q1, q3]':>36}  head wins")
for name in sides["base"][pairs[0]]:
    cols = []
    for side in ("base", "head"):
        v = [sides[side][p][name]["value"] for p in pairs]
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        cols.append(f"{statistics.median(v):12.4g} [{q[0]:10.4g}, {q[2]:10.4g}]")
    sign = 1 if better.get(name, "lower") == "higher" else -1
    wins = sum(
        1 for p in pairs
        if sign * (sides["head"][p][name]["value"] - sides["base"][p][name]["value"]) > 0
    )
    print(f"{name:16} {cols[0]:>36} {cols[1]:>36}  {wins}/{len(pairs)}")
PY
