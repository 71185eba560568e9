"""One benchmark pass, or a set-up probe, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode probe|plain|traced

Prints one JSON object. `ready` is the monotonic clock (shared by every
process on the machine) when `import gbmsum` returned; the parent subtracts
the time it started this process to get the set-up time. A probe stops
there. A pass runs every item of the workload, timing the library calls
only, then checks the answers; a traced pass also records spans.
"""

import sys
import time

import gbmsum

READY = time.monotonic()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GBMSUM_WARNINGS = (gbmsum.AccuracyWarning, gbmsum.CoarseGridWarning,
                   gbmsum.RegimeWarning, gbmsum.CancellationWarning)
UNCHECKED = 1e300  # error ratio of an answer that could not be checked (JSON has no inf)


def _numbers(answers: dict) -> list[float]:
    out = []
    for value in answers.values():
        out.extend(value if isinstance(value, list) else [value])
    return [float(v) for v in out]


def _iterations(solves) -> tuple[int, int]:
    """(picard, settle): iterations up to and after the first delta <= tol."""
    picard = settle = 0
    for report, tol in solves:
        hit = next((i + 1 for i, d in enumerate(report.delta_trace) if d <= tol),
                   report.iterations)
        picard += hit
        settle += report.iterations - hit
    return picard, settle


def run_item(index, item, tracer):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            answers, solves = item.run()
            error = None
        except Exception as exc:  # a failing item is counted, never fatal
            answers, solves, error = {}, [], f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.item = None
    numbers = _numbers(answers)
    checks = []
    if error is None and not all(math.isfinite(v) for v in numbers):
        error = "non-finite output"
    if error is None:
        try:
            checks = [(label, float(err), tol) for label, err, tol in item.check(answers)]
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    ratios = [abs(err) / tol for _, err, tol in checks]
    failed = error is not None or not all(r <= 1.0 for r in ratios)  # NaN fails
    ratio = UNCHECKED if error else max(
        (r if math.isfinite(r) else UNCHECKED for r in ratios), default=0.0)
    picard, settle = _iterations(solves)
    return {
        "name": item.name,
        "seconds": seconds,
        "answers": numbers,
        "checks": checks,
        "err_ratio": ratio,
        "failed": failed,
        "error": error,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught
                     if issubclass(w.category, GBMSUM_WARNINGS)],
        "iterations": sum(r.iterations for r, _ in solves),
        "picard": picard,
        "settle": settle,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "plain", "traced"), required=True)
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    args = ap.parse_args()
    if not Path(gbmsum.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gbmsum imported from {gbmsum.__file__}, not this checkout", file=sys.stderr)
        return 2
    out = {"ready": READY}
    if args.mode != "probe":
        from workloads import WORKLOADS

        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        items = [run_item(i, item, tracer)
                 for i, item in enumerate(WORKLOADS[args.workload](args.seed))]
        out["items"] = items
        out["wall_s"] = sum(r["seconds"] for r in items)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["layers"], finite_sum_applies = tracing.layer_metrics(tracer.spans)
            out["expected_applies"] = sum(r["iterations"] for r in items) + finite_sum_applies
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "item", "size"],
                 "items": [r["name"] for r in items], "spans": tracer.spans}))
        import numpy
        import scipy

        out["env"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "backend": gbmsum.backend_name(),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
