"""Compare two sets of benchmark results taken as alternating pairs.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the last output line of one run per line, in run order, so
line k of both files is pair k. For every metric the script prints each
side's median and quartiles, the change's share of wins (lower is better
unless BENCHMARK.json says higher; ties count for neither) and a verdict.
A gain needs wins in at least nine tenths of the pairs and medians further
apart than the parent's interquartile range. An end-to-end metric whose
parent spread is wider than its bound is unresolved unless every change run
beats every parent run; otherwise its change median may be worse than the
parent's by at most the bound.
"""

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    if len(parent) != len(change):
        print("the two files must hold the same number of runs", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{len(parent)} pairs; parent correct {sum(r['correct'] for r in parent)}, "
          f"change correct {sum(r['correct'] for r in change)}")
    print(f"{'metric':<26} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'wins':>6}  verdict")
    for name in parent[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = -1.0 if better[name] == "higher" else 1.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        qa, qb = quantiles(a, n=4), quantiles(b, n=4)
        ma, mb = median(a), median(b)
        spread = qa[2] - qa[0]
        if wins >= 0.9 * len(a) and abs(mb - ma) > spread:
            verdict = "gain"
        elif name not in bounds:
            verdict = "count or layer time: no bound"
        elif spread > bounds[name] * abs(ma) and max(sign * y for y in b) >= min(sign * x for x in a):
            verdict = "unresolved: parent spread wider than the bound"
        elif sign * (mb - ma) > bounds[name] * abs(ma):
            verdict = f"regression beyond bound {bounds[name]}"
        else:
            verdict = "within bound"
        print(f"{name:<26} {ma:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]".ljust(61)
              + f" {mb:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]".ljust(35)
              + f" {wins:>3}/{len(a):<3} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
