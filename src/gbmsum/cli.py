"""Command-line interface: reproducible batch runs emitting CSV and JSON.

Every command writes its data files plus a manifest (command, parameters,
version, seeds, timestamps, sha256 digests, and the warnings raised before
it was written).  Data files are deterministic given the full flag set;
exit codes: 0 ok, 2 infeasible or malformed input, 3 non-convergence, 4
accuracy problem under --strict.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, distributions, moments, pricing, solver, tails
from .errors import (
    AccuracyWarning,
    ConvergenceError,
    DivergentExpectationError,
    NoRootError,
    ParameterError,
)
from .mc import (
    FixedHorizon,
    GeneralHorizon,
    GeometricHorizon,
    McConfig,
    simulate_sum,
)
from .params import ReducedParams

_EXIT_OK = 0
_EXIT_INFEASIBLE = 2
_EXIT_NO_CONVERGENCE = 3
_EXIT_ACCURACY = 4


class _Outputs:
    """Collects written files and emits one manifest per command run.

    ``warnings`` is the live list that ``main`` records the command's
    warnings into, so each manifest carries every warning raised before it.
    """

    def __init__(self, out_dir: str, prefix: str):
        self.out_dir = out_dir
        self.prefix = prefix
        self.files: list[str] = []
        self.warnings: list[warnings.WarningMessage] = []
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, self.prefix + name)

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> str:
        path = self.path(name)
        if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
            raise ParameterError(f"{path} would hold a non-finite value")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        self.files.append(path)
        return path

    def write_json(self, name: str, payload: dict) -> str:
        path = self.path(name)
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            raise ParameterError(f"{path} would hold a non-finite value") from None
        with open(path, "w") as fh:
            fh.write(text + "\n")
        self.files.append(path)
        return path

    def manifest(self, command: str, params: dict, seeds: list[int] | None = None):
        digests = {}
        for path in self.files:
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
        payload = {
            "command": command,
            "parameters": params,
            "version": __version__,
            "seeds": seeds or [],
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "outputs": digests,
            "warnings": [{"category": w.category.__name__, "message": str(w.message)}
                         for w in self.warnings],
        }
        self.write_json(command + ".manifest.json", payload)


def _fmt(v) -> str:
    """A CSV cell; 17 significant digits round-trip every float."""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _args_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


# -- commands --------------------------------------------------------------------


def cmd_density(args, out: _Outputs):
    rp = ReducedParams(beta=args.beta, rho=args.rho, p=args.p)
    density, report = solver._solve(rp, args.tol, args.max_iter, args.h, args.umax)
    u = density.grid.u()
    x = density.grid.x()
    if rp.p > 0.0:
        limit = np.asarray(
            distributions.yor_pdf(np.maximum(x, 1e-300), math.sqrt(rp.beta), rp.rho, rp.p)
        )
    else:
        limit = np.asarray(distributions.inv_gamma_pdf(x, math.sqrt(rp.beta), rp.rho))
    rows = [[u[j], x[j], density.values[j], limit[j]] for j in range(density.grid.n_points)]
    out.write_csv("density.csv", ["u", "x", "f", "f_continuous_limit"], rows)
    payload = {
        "parameters": {"beta": rp.beta, "rho": rp.rho, "p": rp.p},
        "grid": {"h": density.grid.h, "n_points": density.grid.n_points,
                 "u_max": density.grid.u_max},
        "tail": None if density.tail is None else {
            "exponent": density.tail.exponent,
            "constant": density.tail.constant,
            "regime": "geometric_sum" if rp.p > 0.0 else "infinite_sum",
        },
        "report": vars(report),
    }
    out.write_json("density_report.json", payload)


def _asian_scenario(field) -> tuple[pricing.AsianSpec, dict]:
    """Price the spec that field(name, default) reads; returns the spec and
    the record that `asian` and `batch` write."""
    spec = pricing.AsianSpec(
        s0=field("s0"), strike=field("strike"), rate=field("rate"), dividend=field("div", 0.0),
        sigma=field("sigma"), maturity=field("maturity"), n_fixings=field("fixings"),
    )
    return spec, pricing.asian_prices(spec)


_ASIAN_HEADER = ["n", "s0", "price", "put_price"]


def _asian_row(spec: pricing.AsianSpec, record: dict) -> list:
    return [spec.n_fixings, spec.s0, record["call"], record["put"]]


def cmd_asian(args, out: _Outputs) -> list[int]:
    spec, record = _asian_scenario(lambda name, default=None: getattr(args, name))
    out.write_csv("asian.csv", _ASIAN_HEADER, [_asian_row(spec, record)])
    diag = {"spec": _args_dict(args), **record}
    seeds = []
    if args.mc_check:
        cfg = McConfig(n_paths=args.mc_check, seed=args.seed, antithetic=True,
                       horizon=FixedHorizon(spec.n_fixings))
        kappa = spec.n_fixings * spec.strike / spec.s0
        disc = math.exp(-spec.rate * spec.maturity) * spec.s0 / spec.n_fixings
        est = simulate_sum(spec.reduced(), cfg,
                           lambda xs: disc * np.maximum(xs - kappa, 0.0))
        diag["mc_check"] = {**vars(est), "seed": args.seed}
        seeds = [args.seed]
    out.write_json("asian_report.json", diag)
    return seeds


def _annuity_mean(rp: ReducedParams) -> float:
    """E[X], the shortfall capital K; infinite unless (1-p) e^rho < 1."""
    ratio = (1.0 - rp.p) * math.exp(rp.rho)
    if not ratio < 1.0:
        raise ParameterError(f"the capital K = E[X] is infinite: (1 - p) e^rho = {ratio:.6g} >= 1")
    return math.exp(rp.rho) / (1.0 - ratio)


def _annuity_rows(mean: float, density: solver.GridDensity, report: solver.SolveReport,
                  q_list, var_level):
    rp = density.params
    rows = []
    for q in q_list:
        disc = tails.shortfall_probability(density, mean, q)
        cont = tails.shortfall_continuous(math.sqrt(rp.beta), rp.rho, rp.p, mean, q)
        rows.append([rp.beta, rp.rho, rp.p, mean, q, (1.0 + q) * mean, disc, cont])
    exponent = tails.tail_exponent(rp)
    constant = tails.tail_constant(density)
    var = tails.value_at_risk(tails.TailAsymptote(exponent, constant), var_level,
                              density=density)
    return rows, {"exponent": exponent, "constant": constant, "shortfall": rows[0][6],
                  "var_threshold": var.threshold, "method_flags": {"var": var.method},
                  "report": vars(report), "mean": mean}


def _annuity_scenario(rp: ReducedParams, q_values, what: str, var_level: float, solve):
    """The annuity rows and record of law rp, solved by solve(rp) once the
    buffers q_values (which `what` names), the VaR level and p < 1 are checked."""
    if not (isinstance(q_values, list) and q_values):
        raise ParameterError(f"{what} must be a non-empty list of buffers q, got {q_values!r}")
    q_list = [_number(q, f"{what} entry") for q in q_values]
    if min(q_list) < 0.0:
        raise ParameterError(f"{what} entry must be >= 0, got {min(q_list)}")
    if not (0.0 < var_level < 1.0):
        raise ParameterError(f"VaR level must be in (0, 1), got {var_level}")
    tails.tail_exponent(rp)  # raises at p = 1, whose log-normal law has no power tail
    return _annuity_rows(_annuity_mean(rp), *solve(rp), q_list, var_level)


_ANNUITY_HEADER = ["beta", "rho", "p", "mean", "q", "threshold",
                   "shortfall", "shortfall_continuous"]


def cmd_annuity(args, out: _Outputs):
    rows, record = _annuity_scenario(
        ReducedParams(beta=args.beta, rho=args.rho, p=args.p),
        [v for v in args.q_list.split(",") if v != ""], "--q-list", args.var_level,
        lambda rp: solver._solve(rp, args.tol, args.max_iter, args.h, args.umax),
    )
    out.write_csv("annuity.csv", _ANNUITY_HEADER, rows)
    out.write_json("annuity_report.json", record)


def cmd_calibrate(args, out: _Outputs):
    method = args.method.replace("-", "_")
    p = pricing.makeham_match_p(args.age, method)
    out.write_csv("calibrate.csv", ["age", "method", "p"], [[args.age, args.method, p]])
    out.write_json("calibrate_report.json", {"age": args.age, "method": args.method, "p": p})


def cmd_moments(args, out: _Outputs):
    rp = ReducedParams(beta=args.beta, rho=args.rho, p=args.p)
    if args.kmax < 1:
        raise ParameterError(f"kmax must be >= 1, got {args.kmax}")
    mm = moments.gbm_multiplier_moments(rp)
    rows = []
    for k in range(1, args.kmax + 1):
        if moments.moment_exists(k, mm, rp.p):
            value = moments.moments_geometric(k, mm, rp.p)[-1]
            rows.append([k, True, value])
        else:
            rows.append([k, False, ""])
    out.write_csv("moments.csv", ["k", "exists", "value"], rows)
    out.write_json(
        "moments_report.json",
        {"beta": rp.beta, "rho": rp.rho, "p": rp.p,
         "moments": [{"k": r[0], "exists": r[1], "value": r[2] if r[1] else None}
                     for r in rows]},
    )


def _number(value, what: str, kind=float):
    """CLI text or a JSON value as a finite `kind`, or a ParameterError naming `what`."""
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float)):
        try:
            number = kind(value)
        except (TypeError, ValueError):
            pass
        else:
            if not math.isfinite(number):
                raise ParameterError(f"{what} must be finite, got {value!r}")
            return number
    noun = "an integer" if kind is int else "a number"
    raise ParameterError(f"{what} must be {noun}, got {value!r}")


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read {what} {path!r}: {exc}") from None


def _parse_horizon(text: str):
    kind, _, arg = text.partition(":")
    if kind == "fixed":
        return FixedHorizon(_number(arg, "fixed horizon N", int))
    if kind == "geometric":
        return GeometricHorizon(_number(arg, "geometric horizon P"))
    if kind == "general":
        weights = _read_json(arg, "horizon file")
        if not isinstance(weights, list):
            raise ParameterError(f"horizon file {arg!r} must hold a JSON array of weights")
        return GeneralHorizon(tuple(_number(w, f"weight in {arg!r}") for w in weights))
    raise ParameterError(f"horizon must be fixed:N, geometric:P or general:FILE, got {text!r}")


def _parse_statistic(text: str):
    kind, _, arg = text.partition(":")
    if kind == "mean":
        return lambda x: x
    if kind == "moment":
        k = _number(arg, "moment order K", int)
        return lambda x: x**k
    if kind == "survival":
        level = _number(arg, "survival level X")
        return lambda x: (x > level).astype(float)
    raise ParameterError(f"statistic must be mean, moment:K or survival:X, got {text!r}")


def cmd_mc(args, out: _Outputs) -> list[int]:
    rp = ReducedParams(beta=args.beta, rho=args.rho)
    cfg = McConfig(n_paths=args.paths, seed=args.seed, antithetic=args.antithetic,
                   horizon=_parse_horizon(args.horizon))
    est = simulate_sum(rp, cfg, _parse_statistic(args.statistic))
    out.write_json(
        "mc_report.json",
        {**vars(est), "beta": rp.beta, "rho": rp.rho, "seed": args.seed,
         "antithetic": args.antithetic, "horizon": args.horizon,
         "statistic": args.statistic},
    )
    return [args.seed]


def cmd_batch(args, out: _Outputs):
    scenarios = _read_json(args.config, "batch config")
    if not isinstance(scenarios, list) or not all(isinstance(sc, dict) for sc in scenarios):
        raise ParameterError("batch config must be a JSON array of scenario objects")
    asian_rows, annuity_rows, envelope = [], [], []
    solve_cache: dict = {}

    def solve(rp):
        if rp not in solve_cache:
            solve_cache[rp] = solver._solve(rp, args.tol, args.max_iter, None, None)
        return solve_cache[rp]

    for i, sc in enumerate(scenarios):
        kind = sc.get("type")

        def field(name, default=None):
            value = sc.get(name, default)
            if value is None:
                raise ParameterError(f"{kind} scenario {i} has no field {name!r}")
            return _number(value, f"{kind} scenario {i} field {name!r}",
                           int if name == "fixings" else float)

        if kind == "asian":
            spec, record = _asian_scenario(field)
            asian_rows.append(_asian_row(spec, record))
        elif kind == "annuity":
            rows, record = _annuity_scenario(
                ReducedParams(beta=field("beta"), rho=field("rho"), p=field("p")),
                sc.get("q_list", [0.0]), f"{kind} scenario {i} q_list",
                field("var_level", 0.01), solve,
            )
            annuity_rows.extend(rows)
        else:
            raise ParameterError(f"scenario {i} has unknown type {kind!r}")
        envelope.append({"index": i, "type": kind, **record})
    if asian_rows:
        out.write_csv("asian.csv", _ASIAN_HEADER, asian_rows)
    if annuity_rows:
        out.write_csv("annuity.csv", _ANNUITY_HEADER, annuity_rows)
    out.write_json("batch_report.json", {"scenarios": envelope})


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmsum",
        description="Distributions, moments, tails and pricing of discrete GBM sums",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory "
                       "(default: $GBMSUM_OUT or current directory)")
        p.add_argument("--prefix", default="", help="output filename prefix")
        p.add_argument("--strict", action="store_true",
                       help="escalate accuracy warnings to exit code 4")

    def add_iteration(p):
        p.add_argument("--tol", type=float, default=solver._SOLVE_TOL)
        p.add_argument("--max-iter", type=int, default=solver._SOLVE_MAX_ITER, dest="max_iter")

    def add_solver(p):
        p.add_argument("--h", type=float, default=None, help="grid step in u")
        p.add_argument("--umax", type=float, default=None, help="grid span in u")
        add_iteration(p)

    p = sub.add_parser("density", help="solve for a stationary density")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--p", type=float, default=0.0)
    add_solver(p)
    add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("asian", help="price a discretely monitored Asian option")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--div", type=float, default=0.0)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--fixings", type=int, required=True)
    p.add_argument("--mc-check", type=int, default=0, dest="mc_check",
                   help="cross-check with this many Monte Carlo paths")
    p.add_argument("--seed", type=int, default=20160520)
    add_common(p)
    p.set_defaults(func=cmd_asian)

    p = sub.add_parser("annuity", help="shortfall probabilities and VaR")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q-list", default="0", dest="q_list",
                   help="comma-separated capital buffers, e.g. 0,0.5")
    p.add_argument("--var-level", type=float, default=0.01, dest="var_level")
    add_solver(p)
    add_common(p)
    p.set_defaults(func=cmd_annuity)

    p = sub.add_parser("calibrate", help="match geometric mortality to Makeham")
    p.add_argument("--age", type=float, required=True)
    p.add_argument("--method", choices=["life-expectancy", "hazard-rate"],
                   required=True)
    add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("moments", help="closed-form positive moments")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--kmax", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("mc", help="Monte Carlo oracle estimate")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--horizon", required=True,
                   help="fixed:N | geometric:P | general:FILE")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--statistic", default="mean",
                   help="mean | moment:K | survival:X")
    add_common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("batch", help="run a JSON scenario list")
    p.add_argument("--config", required=True)
    add_iteration(p)
    add_common(p)
    p.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get("GBMSUM_OUT", ".")
    out = _Outputs(out_dir, args.prefix)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out.warnings = caught
        try:
            out.manifest(args.command, _args_dict(args), args.func(args, out))
        except (ParameterError, NoRootError, DivergentExpectationError) as exc:
            error, status = exc, _EXIT_INFEASIBLE
        except ConvergenceError as exc:
            error, status = exc, _EXIT_NO_CONVERGENCE
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return status
    if args.strict and any(issubclass(w.category, AccuracyWarning) for w in caught):
        return _EXIT_ACCURACY
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
