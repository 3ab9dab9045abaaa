#!/usr/bin/env bash
# calibrate.sh — run the whole benchmark K times on this commit and show
# whether every end-to-end metric repeats.
#
#   bench/calibrate.sh [K] [first-seed]        (from the repository root)
#
# For every workload × end-to-end metric, gated or not, it prints the
# median, the quartiles, the quartile distance as a share of the median
# (the driver's spread, from Python's statistics.quantiles(values, n=4))
# and (max-min)/median, each beside the metric's bound from BENCHMARK.json.
# Every second seed is also run traced, right after the untraced run, which
# gives harness.trace_overhead_pct (the share of store_rps tracing costs,
# median against median) and the span coverage per workload.
#
# Exit 1 if a gated spread exceeds its bound (setup_s is exempt from that
# rule, as in the driver), 2 if an operation failed.
#
# Runs are strictly one after another: a second process on this two-core
# box is the largest noise source there is.
set -euo pipefail
K=${1:-5}
SEED0=${2:-1}
[ "$K" -ge 5 ] || { echo "calibrate: K must be at least 5" >&2; exit 64; }
cd "$(dirname "$0")/.."

OUT=.bench_build/calibrate
rm -rf "$OUT"
mkdir -p "$OUT"
go build -o "$OUT/bench" ./bench
SECONDS_ARG=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in $WORKLOADS; do
  for i in $(seq 0 $((K - 1))); do
    seed=$((SEED0 + i))
    for trace in 0 1; do
      [ "$trace" = 0 ] || [ $((i % 2)) = 0 ] || continue
      echo "calibrate: $w seed $seed trace $trace" >&2
      "$OUT/bench" -workload "$w" -seed "$seed" -seconds "$SECONDS_ARG" -trace "$trace" -dir "$OUT" > "$OUT/$w.$seed.$trace.txt"
    done
  done
done

python3 - "$OUT" <<'EOF'
import glob, json, re, statistics, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
bad = failed = 0

def runs(workload, trace):
    """The result line and the ungated text lines of every run made."""
    for path in sorted(glob.glob(f"{out}/{workload}.*.{trace}.txt")):
        lines = open(path).read().splitlines()
        res = json.loads(lines[-1])
        values = {k: v["value"] for k, v in res["metrics"].items()}
        for l in lines:
            m = re.match(r"\s+(\S+)\s+([\d.]+) \S+ \(not gated\)$", l)
            if m:
                values[m.group(1)] = float(m.group(2))
        yield res, values

print(f"{'workload':16} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9} {'bound':>7}")
overhead = []
for w in bench["workloads"]:
    plain = list(runs(w["name"], 0))
    traced = list(runs(w["name"], 1))
    failed += sum(r["failed"] + (not r["correct"]) for r, _ in plain + traced)
    for name in plain[0][1]:
        vs = [v[name] for _, v in plain]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread, rng = (q3 - q1) / med, (max(vs) - min(vs)) / med
        bound, flag = bounds.get(name), ""
        if bound is None:
            flag = "  (not gated)"
        elif spread > bound and name != "setup_s":
            flag, bad = "  <-- exceeds bound", bad + 1
        elif spread > bound / 3:
            flag = "  (above a third of the bound)"
        shown = f"{bound:7.2f}" if bound is not None else f"{'-':>7}"
        print(f"{w['name']:16} {name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {rng:9.4f} {shown}{flag}")
    med = lambda rs, name: statistics.median(v[name] for _, v in rs)
    overhead.append(
        f"{w['name']:16} harness.trace_overhead_pct {100 * (1 - med(traced, 'harness.traced_store_rps') / med(plain, 'store_rps')):6.2f} %"
        f" ({len(traced)} traced runs against {len(plain)})   store span coverage {med(traced, 'harness.store_span_coverage_pct'):6.2f} %"
        f"   retrieve span coverage {med(traced, 'harness.retrieve_span_coverage_pct'):6.2f} %")
print()
print("\n".join(overhead))
if failed:
    print(f"calibrate: {failed} failed operations or checks", file=sys.stderr)
    sys.exit(2)
if bad:
    print(f"calibrate: {bad} metric(s) spread beyond their bound", file=sys.stderr)
    sys.exit(1)
EOF
