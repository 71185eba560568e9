import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbmsum
from gbmsum import ReducedParams, solve_geometric, solve_infinite


def fresh_python(code, *args, **env):
    """stdout of `python -c code *args` in a fresh interpreter that imports gbmsum from
    the tree under test, with `env` added to its environment; fails on a non-zero exit."""
    src = str(Path(gbmsum.__file__).parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture(scope="session")
def solved():
    """Session-wide cache of fixed-point solves shared across test modules."""
    cache = {}

    def get(beta, rho, p=0.0, **kwargs):
        key = (beta, rho, p, tuple(sorted(kwargs.items())))
        if key not in cache:
            rp = ReducedParams(beta=beta, rho=rho, p=p)
            if p > 0.0:
                cache[key] = solve_geometric(rp, **kwargs)
            else:
                cache[key] = solve_infinite(rp, **kwargs)
        return cache[key]

    return get


# Shortfall table from the source numerical study: beta, rho, p, q ->
# (discrete shortfall, continuous-limit shortfall), with K = E[X_N].
SHORTFALL_TABLE = [
    (1.0, 0.0, 0.1, 0.0, 0.10852, 0.10658),
    (1.0, 0.0, 0.1, 0.5, 0.07122, 0.06849),
    (1.0, 0.0, 0.01, 0.0, 0.01781, 0.01783),
    (1.0, 0.0, 0.01, 0.5, 0.01187, 0.01183),
    (0.1, 0.0, 0.1, 0.0, 0.26821, 0.27067),
    (0.1, 0.0, 0.1, 0.5, 0.15846, 0.15899),
    (0.1, 0.0, 0.01, 0.0, 0.10625, 0.10658),
    (0.1, 0.0, 0.01, 0.5, 0.06853, 0.06849),
    (1.0, -0.1, 0.1, 0.0, 0.16415, 0.17072),
    (1.0, -0.1, 0.1, 0.5, 0.10509, 0.10605),
    (1.0, -0.1, 0.01, 0.0, 0.12334, 0.13083),
    (1.0, -0.1, 0.01, 0.5, 0.08018, 0.08321),
    (0.1, -0.1, 0.1, 0.0, 0.34969, 0.37558),
    (0.1, -0.1, 0.1, 0.5, 0.17592, 0.19044),
    (0.1, -0.1, 0.01, 0.0, 0.32828, 0.35577),
    (0.1, -0.1, 0.01, 0.5, 0.15949, 0.17039),
]

# Asian call prices with sigma = 0.4, r = 0.1, T = 1, K = 100: (n, S0) -> C.
ASIAN_TABLE = {
    (10, 95): 9.2239, (10, 100): 12.0424, (10, 105): 15.2243,
    (25, 95): 8.7086, (25, 100): 11.4910, (25, 105): 14.6510,
    (50, 95): 8.5371, (50, 100): 11.3070, (50, 105): 14.4611,
    (125, 95): 8.4347, (125, 100): 11.1974, (125, 105): 14.3459,
    (250, 95): 8.4006, (250, 100): 11.1607, (250, 105): 14.3081,
    (500, 95): 8.3831, (500, 100): 11.1422, (500, 105): 14.2887,
    (1000, 95): 8.3718, (1000, 100): 11.1301, (1000, 105): 14.2754,
}
