"""The Monte Carlo path-sum kernel, with a numba fast path and a pure-numpy
fallback.

Backend selection: the ``GBMSUM_BACKEND`` environment variable may be set to
``numba``, ``numpy`` or ``auto`` (default).  ``auto`` uses numba when it is
importable.  Both backends consume identical inputs in identical order and
agree to floating-point roundoff.  The grid operator does not go through
this switch: it is a ``scipy.sparse`` matrix (``solver.GaussianStepOperator``).
"""

from __future__ import annotations

import os

import numpy as np

_BACKEND_ENV = os.environ.get("GBMSUM_BACKEND", "auto").lower()
if _BACKEND_ENV not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"GBMSUM_BACKEND must be auto, numba or numpy, got {_BACKEND_ENV!r}"
    )

NUMBA_AVAILABLE = False
if _BACKEND_ENV != "numpy":
    try:
        from numba import njit

        NUMBA_AVAILABLE = True
    except ImportError:
        if _BACKEND_ENV == "numba":
            raise RuntimeError("GBMSUM_BACKEND=numba but numba is not importable")

USE_NUMBA = NUMBA_AVAILABLE and _BACKEND_ENV != "numpy"


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


# -- cumulative-product path sums -------------------------------------------


if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _path_sums_nb(z, offsets, scale, drift):  # pragma: no cover - thin loop
        n_paths = offsets.shape[0] - 1
        out = np.empty(n_paths)
        for p in range(n_paths):
            acc = 0.0
            logw = 0.0
            for k in range(offsets[p], offsets[p + 1]):
                logw += scale[p] * z[k] + drift[p]
                acc += np.exp(logw)
            out[p] = acc
        return out


def _path_sums_np(z: np.ndarray, offsets: np.ndarray, scale: np.ndarray,
                  drift: np.ndarray) -> np.ndarray:
    lengths = np.diff(offsets)
    out = np.zeros(lengths.size)
    order = np.argsort(lengths, kind="stable")
    sorted_len = lengths[order]
    bounds = np.flatnonzero(np.diff(sorted_len)) + 1
    for group in np.split(order, bounds):
        length = int(lengths[group[0]])
        if length == 0:
            continue
        idx = offsets[group][:, None] + np.arange(length)[None, :]
        w = scale[group][:, None] * z[idx] + drift[group][:, None]
        out[group] = np.exp(np.cumsum(w, axis=1)).sum(axis=1)
    return out


def path_partial_product_sums(z: np.ndarray, offsets: np.ndarray,
                              scale: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """Per-path sums of running products of log-normal factors.

    Path p owns z[offsets[p]:offsets[p+1]]; its result is
    sum_i exp(sum_{k<=i} (scale[p] * z_k + drift[p])).
    """
    if USE_NUMBA:
        return _path_sums_nb(z, offsets, scale, drift)
    return _path_sums_np(z, offsets, scale, drift)
