"""Spans around the calls into the gbmsum layers, recorded from outside.

`install` wraps each layer's public callables at the place callers look
them up: the module attributes of every gbmsum module that binds them, and
the `GaussianStepOperator` methods on the class. A span is recorded only
while an item is open, so the untimed checks leave none. Spans stay in
memory as [name, start, end, parent index, item, size] and are written
out when the pass ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

from gbmsum import distributions, mc, pricing, solver, tails


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._open: list[int] = []

    def wrap(self, fn, name, size=None):
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.item,
                    size(*args) if size else 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


# span name -> (module, function names, size of one call)
LAYERS = {
    "solver.solve": (solver, ["solve_infinite", "solve_geometric"], None),
    "solver.integrals": (solver, ["survival", "cdf", "quantile", "expectation",
                                  "survival_on_grid"], None),
    "solver.density_at": (solver, ["density_at"], None),
    "pricing.price": (pricing, ["asian_prices"], lambda spec, *_: spec.n_fixings),
    "tails": (tails, _public_functions(tails), None),
    "distributions": (distributions, _public_functions(distributions), None),
    "mc.simulate": (mc, ["simulate_sum"], None),
    "mc.path_sums": (mc, ["path_partial_product_sums"], lambda z, *_: z.size),
}


def install(tracer: Tracer) -> None:
    """Rebind every gbmsum name of each layer callable to its traced wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "gbmsum" or name.startswith("gbmsum.")]
    for span_name, (module, names, size) in LAYERS.items():
        for name in names:
            original = getattr(module, name)
            traced = tracer.wrap(original, span_name, size)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
    op = solver.GaussianStepOperator
    op.__init__ = tracer.wrap(op.__init__, "solver.build")
    op.apply = tracer.wrap(op.apply, "solver.apply", lambda self, values: values.size)


def layer_metrics(spans: list[list]) -> tuple[dict, int]:
    """Per-layer counts and times of one pass, plus the finite-sum applies.

    A layer's count and time cover its outermost spans (a call of the layer
    made from inside the same layer is not counted again). Self time is a
    span's duration minus its direct children's, summed over the layer.
    """
    children = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    count, size = defaultdict(int), defaultdict(int)
    total, self_s = defaultdict(float), defaultdict(float)
    builds_in = defaultdict(int)  # price span index -> operator builds inside it
    for i, (name, start, end, parent, _, n) in enumerate(spans):
        self_s[name] += end - start - children[i]
        size[name] += n
        ancestor, outermost = parent, True
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                outermost = False
            if name == "solver.build" and spans[ancestor][0] == "pricing.price":
                builds_in[ancestor] += 1
            ancestor = spans[ancestor][3]
        if outermost:
            count[name] += 1
            total[name] += end - start
    prices = [i for i, s in enumerate(spans) if s[0] == "pricing.price"]
    misses = [i for i in prices if builds_in[i]]
    finite_sum_applies = sum(builds_in[i] * (spans[i][5] - 1) for i in misses)
    m = {
        "solver.apply.count": count["solver.apply"],
        "solver.apply.s": total["solver.apply"],
        "solver.apply.points": size["solver.apply"],
        "solver.build.count": count["solver.build"],
        "solver.build.s": total["solver.build"],
        "solver.density_at.count": count["solver.density_at"],
        "solver.density_at.s": total["solver.density_at"],
        "solver.solve.count": count["solver.solve"],
        "solver.solve.s": total["solver.solve"],
        "solver.solve.self_s": self_s["solver.solve"],
        "solver.integrals.count": count["solver.integrals"],
        "solver.integrals.s": total["solver.integrals"],
        "pricing.price.count": count["pricing.price"],
        "pricing.price.s": total["pricing.price"],
        "pricing.price.self_s": self_s["pricing.price"],
        "pricing.cache.hit_ratio": (len(prices) - len(misses)) / len(prices) if prices else 0.0,
        "pricing.builds_per_miss": sum(builds_in[i] for i in misses) / len(misses) if misses else 0.0,
        "tails.count": count["tails"],
        "tails.self_s": self_s["tails"],
        "distributions.count": count["distributions"],
        "distributions.s": total["distributions"],
        "mc.simulate.count": count["mc.simulate"],
        "mc.simulate.s": total["mc.simulate"],
        "mc.simulate.self_s": self_s["mc.simulate"],
        "mc.path_sums.s": total["mc.path_sums"],
        "mc.path_sums.draws": size["mc.path_sums"],
    }
    return m, finite_sum_applies

