"""Run one gbmsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload annuity|perpetuity|asian|mc \
        --seed N --seconds S --trace 0|1

Every pass runs the whole workload in a fresh interpreter (child.py), so the
density cache starts cold and each pass also measures set-up time. With
--trace 0 the run makes as many untraced passes as fit in --seconds at the
pass times below (at least one), back to back. With --trace 1 it makes one
untraced and two traced passes, checks that the traced passes give the
untraced answers bit for bit and repeat their counts exactly, and reports
the per-layer metrics. Set-up probes that only import gbmsum, run before
and after the passes, top the set-up samples up to five.

The last line of standard output is one JSON object with the metrics named
in BENCHMARK.json; the lines above it are for people. Each run also writes
its record, and a traced run its spans, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
# Seconds one pass took when the benchmark was defined (2-core Xeon
# machine). A run makes --seconds // PASS_SECONDS passes, so runs of a
# parent and of a change measure the same work whatever their speed.
# `annuity` is not in BENCHMARK.json (four workloads at steady run lengths
# do not fit the benchmark's time budget) but can be run by hand.
PASS_SECONDS = {"annuity": 18.0, "perpetuity": 18.0, "asian": 7.5, "mc": 7.5}
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer counts that must repeat exactly across traced passes
COUNTS = ("solver.apply.count", "solver.apply.points", "solver.iter.picard",
          "solver.iter.settle", "solver.build.count", "solver.density_at.count",
          "solver.solve.count", "solver.integrals.count", "pricing.price.count",
          "pricing.cache.hit_ratio", "pricing.builds_per_miss", "tails.count",
          "distributions.count", "mc.simulate.count", "mc.path_sums.draws")


class RunError(Exception):
    pass


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run child.py; its set-up time runs from here to its `import gbmsum`."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise RunError(f"child {args} passed the {RUN_DEADLINE_S:.0f} s run deadline")
    if proc.returncode != 0:
        raise RunError(f"child {args} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def item_tail(passes: list[dict]) -> float:
    """The slowest item of each pass, median over passes. The items of a
    pass differ in size and a run holds few passes, too few samples for a
    percentile with ten beyond it; the maximum of the pool would be one
    sample taken in the machine's slowest moment."""
    return median(max(item["seconds"] for item in p["items"]) for p in passes)


def trace_problems(plain: list[dict], traced: list[dict]) -> list[str]:
    """The traced passes must not change the program."""
    problems = []
    reference = [item["answers"] for item in plain[0]["items"]]
    for k, p in enumerate(traced):
        if [item["answers"] for item in p["items"]] != reference:
            problems.append(f"traced pass {k + 1} answers differ from the untraced pass")
        if p["layers"]["solver.apply.count"] != p["expected_applies"]:
            problems.append(f"traced pass {k + 1}: solver.apply.count "
                            f"{p['layers']['solver.apply.count']} != sum of solve "
                            f"iterations plus finite-sum applies {p['expected_applies']}")
    for key in COUNTS:
        values = {p["layers"][key] for p in traced}
        if len(values) > 1:
            problems.append(f"{key} differs across traced passes: {sorted(values)}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(PASS_SECONDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    for needed in ("BENCHMARK.json", "src/gbmsum/__init__.py", "tests/conftest.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from a gbmsum checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: str(nproc) for var in THREAD_VARS})
    deadline = time.monotonic() + RUN_DEADLINE_S
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        modes = ("plain", "traced", "traced")
    else:
        modes = ("plain",) * max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    # set-up probes go half before and half after the passes: set-up time
    # drifts over seconds, and spreading the samples steadies their median
    probes = max(0, SETUP_SAMPLES - len(modes))
    schedule = ["probe"] * (probes // 2) + list(modes) + ["probe"] * (probes - probes // 2)
    passes: list[tuple[str, dict]] = []
    setups = []
    try:
        for mode in schedule:
            spans = ["--spans", str(OUT / f"spans-{args.workload}-{len(passes)}.json")]
            result = spawn(child_args + ["--mode", mode] + (spans if mode == "traced" else []),
                           env, deadline)
            setups.append(result["setup_s"])
            if mode != "probe":
                passes.append((mode, result))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [p for mode, p in passes if mode == "plain"]
    traced = [p for mode, p in passes if mode == "traced"]
    items = [item for _, p in passes for item in p["items"]]
    failed = sum(item["failed"] for item in items)
    item_s = [item["seconds"] for p in plain for item in p["items"]]
    values = {
        "setup_s": median(setups),
        "wall_s": median(p["wall_s"] for p in plain),
        "item_s.p50": median(item_s),
        "item_s.tail": item_tail(plain),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        "fail_ratio": failed / len(items),
        "err_ratio": max(item["err_ratio"] for item in items),
        "accuracy_warnings": sum(len(i["warnings"]) for i in items) / len(passes),
    }
    notes = {
        "setup_s": f"median of {len(setups)}",
        "wall_s": f"median of {len(plain)} passes",
        "item_s.p50": f"{len(item_s)} items",
        "item_s.tail": f"slowest item of a pass, median of {len(plain)} passes",
        "fail_ratio": f"{failed}/{len(items)} items",
        "accuracy_warnings": "gbmsum warnings per pass",
    }
    problems = [f"{item['name']}: {item['error'] or 'outside tolerance'} {item['checks']}"
                for item in items if item["failed"]]
    if traced:
        for p in traced:
            p["layers"]["solver.iter.picard"] = sum(i["picard"] for i in p["items"])
            p["layers"]["solver.iter.settle"] = sum(i["settle"] for i in p["items"])
        problems += trace_problems(plain, traced)
        values.update({k: traced[0]["layers"][k] if k in COUNTS  # equal in every pass
                       else median(p["layers"][k] for p in traced) for k in traced[0]["layers"]})
        values["trace.overhead_s"] = (median(p["wall_s"] for p in traced) - values["wall_s"])
        notes["trace.overhead_s"] = "traced minus untraced wall_s"

    env_info = dict(plain[0]["env"], cpu=cpu_model(), nproc=nproc, seed=args.seed,
                    threads={var: env[var] for var in THREAD_VARS})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(plain)} untraced, {len(traced)} traced passes")
    print("env " + json.dumps(env_info))
    shown = spec["end_to_end"] + [
        {"name": "fail_ratio", "unit": "1"}, {"name": "err_ratio", "unit": "1"},
        {"name": "accuracy_warnings", "unit": "count"}]
    if traced:
        shown += [m for m in spec["per_layer"]
                  if m["name"] not in ("err_ratio", "accuracy_warnings")]
    for m in shown:
        print(f"  {m['name']:<26} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    for problem in problems:
        print(f"FAIL {problem}")

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env_info, "values": values, "problems": problems,
         "passes": [dict(p, mode=mode) for mode, p in passes]}, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
