"""The four benchmark workloads and their correctness checks.

A workload is a list of items issued back to back by one caller. Each item
makes its library calls (the timed part) and then checks its answers
against the acceptance suite's references and tolerances (untimed).
Library functions are looked up as module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from gbmsum import mc, moments, params, pricing, solver, tails

ROOT = Path(__file__).resolve().parents[1]

SOLVE_TOL = 1e-9  # acceptance 2, 6 and 7 solve at this tolerance
MAX_ITER = 2000
VAR_LEVEL = 0.01

PERPETUITY_LAWS = ((1.0, -0.1), (0.5, -0.1), (0.1, -0.1), (1.0, 0.0), (0.1, 0.0))

ASIAN_SIGMAS = (0.2, 0.4, 0.6)
ASIAN_TABLE_SIGMA = 0.4
ASIAN_FIXINGS = (10, 25, 50, 125, 250, 500, 1000)
ASIAN_SPOTS = (95.0, 100.0, 105.0)

MC_PATHS = 1_000_000


@dataclass(frozen=True)
class Item:
    """One unit of work: `run` makes the library calls and returns
    (answers, solves); `check` turns the answers into (label, error, tolerance)
    triples. `solves` lists (SolveReport, tol) for the fixed-point solves."""

    name: str
    run: Callable[[], tuple[dict, list]]
    check: Callable[[dict], list]


def acceptance_tables() -> tuple[list, dict]:
    """SHORTFALL_TABLE and ASIAN_TABLE as the acceptance suite defines them."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    return ast.literal_eval(found["SHORTFALL_TABLE"]), ast.literal_eval(found["ASIAN_TABLE"])


# -- annuity: geometrically stopped sums and the shortfall table ---------------


def _annuity_run(law, rows):
    beta, rho, p = law
    rp = params.ReducedParams(beta=beta, rho=rho, p=p)
    F, report = solver.solve_geometric(rp, tol=SOLVE_TOL, max_iter=MAX_ITER)
    mean = math.exp(rho) / (1.0 - (1.0 - p) * math.exp(rho))  # K = E[X_N]
    discrete = [tails.shortfall_probability(F, mean, q) for q, _, _ in rows]
    continuous = [tails.shortfall_continuous(math.sqrt(beta), rho, p, mean, q)
                  for q, _, _ in rows]
    var = tails.value_at_risk(F.tail, VAR_LEVEL, F)
    answers = {"discrete": discrete, "continuous": continuous, "var": var.threshold}
    return answers, [(report, SOLVE_TOL)]


def _annuity_check(rows, answers):
    out = []
    for (q, ref_d, ref_c), d, c in zip(rows, answers["discrete"], answers["continuous"]):
        out.append((f"discrete q={q}", d - ref_d, 2e-3))
        out.append((f"continuous q={q}", c - ref_c, 5e-4))
    return out


def annuity(seed: int) -> list[Item]:
    shortfall, _ = acceptance_tables()
    laws: dict = {}
    for beta, rho, p, q, ref_d, ref_c in shortfall:
        laws.setdefault((beta, rho, p), []).append((q, ref_d, ref_c))
    return [Item(f"annuity{law}", partial(_annuity_run, law, rows),
                 partial(_annuity_check, rows))
            for law, rows in laws.items()]


# -- perpetuity: infinite sums, tail laws -----------------------------------------


def _perpetuity_run(beta, rho):
    rp = params.ReducedParams(beta=beta, rho=rho)
    F, report = solver.solve_infinite(rp, tol=SOLVE_TOL, max_iter=MAX_ITER)
    exponent, plateau, variation = tails.fit_survival_powerlaw(F)
    left = tails.fit_left_tail_coefficient(F, rp)
    var = tails.value_at_risk(F.tail, VAR_LEVEL, F)
    answers = {"exponent": exponent, "plateau": plateau, "variation": variation,
               "left_coefficient": left, "var": var.threshold}
    return answers, [(report, SOLVE_TOL)]


def _perpetuity_check(beta, rho, answers):
    exact = 1.0 - 2.0 * rho / beta  # survival exponent of the infinite sum
    target = -1.0 / (2.0 * beta)  # left-tail coefficient
    return [("tail exponent", (answers["exponent"] - exact) / exact, 0.05),
            ("left-tail coefficient", (answers["left_coefficient"] - target) / abs(target), 0.15)]


def perpetuity(seed: int) -> list[Item]:
    return [Item(f"perpetuity{law}", partial(_perpetuity_run, *law),
                 partial(_perpetuity_check, *law))
            for law in PERPETUITY_LAWS]


# -- asian: discretely monitored Asian options -------------------------------------


def _asian_run(sigma, n):
    calls, puts, gaps = [], [], []
    for s0 in ASIAN_SPOTS:
        spec = pricing.AsianSpec(s0=s0, strike=100.0, rate=0.1, dividend=0.0,
                                 sigma=sigma, maturity=1.0, n_fixings=n)
        prices = pricing.asian_prices(spec)
        calls.append(prices["call"])
        puts.append(prices["put"])
        gaps.append(pricing.put_call_parity_gap(spec))
    return {"call": calls, "put": puts, "parity_gap": gaps}, []


def _asian_check(sigma, n, table, answers):
    out = [(f"parity S0={s0:g}", gap, 1e-4)
           for s0, gap in zip(ASIAN_SPOTS, answers["parity_gap"])]
    if sigma == ASIAN_TABLE_SIGMA:
        out += [(f"call S0={s0:g}", call - table[(n, int(s0))], 5e-3)
                for s0, call in zip(ASIAN_SPOTS, answers["call"])]
    return out


def asian(seed: int) -> list[Item]:
    _, table = acceptance_tables()
    return [Item(f"asian(sigma={sigma}, n={n})", partial(_asian_run, sigma, n),
                 partial(_asian_check, sigma, n, table))
            for sigma in ASIAN_SIGMAS for n in ASIAN_FIXINGS]


# -- mc: the Monte Carlo oracle ------------------------------------------------------

# (beta, rho, p, horizon, moment orders): acceptance 11's two runs, then a
# geometric horizon with mean 100 whose tail exponent 2.57 keeps the SE finite.
MC_RUNS = (
    (0.05, -0.2, 0.0, mc.FixedHorizon(80), (1, 2, 3, 4)),
    (0.05, 0.0, 0.1, mc.GeometricHorizon(0.1), (1,)),
    (0.005, 0.0, 0.01, mc.GeometricHorizon(0.01), (1,)),
)


def _mc_run(beta, rho, p, horizon, orders, seed):
    rp = params.ReducedParams(beta=beta, rho=rho, p=p)
    cfg = mc.McConfig(n_paths=MC_PATHS, seed=seed, antithetic=True, horizon=horizon)
    est = mc.simulate_sum(rp, cfg, lambda x: np.stack([x**k for k in orders], axis=1))
    est = est if isinstance(est, list) else [est]  # one column gives one estimate
    return {"value": [e.value for e in est], "std_error": [e.std_error for e in est]}, []


def _mc_check(beta, rho, p, orders, answers):
    mm = moments.gbm_multiplier_moments(params.ReducedParams(beta=beta, rho=rho, p=p))
    closed = moments.moments_geometric(max(orders), mm, p)
    return [(f"z moment {k}", (v - closed[k - 1]) / se, 3.0)
            for k, v, se in zip(orders, answers["value"], answers["std_error"])]


def mc_oracle(seed: int) -> list[Item]:
    seeds = np.random.SeedSequence(seed).generate_state(len(MC_RUNS))
    return [Item(f"mc(beta={beta}, rho={rho}, {horizon})",
                 partial(_mc_run, beta, rho, p, horizon, orders, int(s)),
                 partial(_mc_check, beta, rho, p, orders))
            for (beta, rho, p, horizon, orders), s in zip(MC_RUNS, seeds)]


WORKLOADS = {"annuity": annuity, "perpetuity": perpetuity, "asian": asian, "mc": mc_oracle}
