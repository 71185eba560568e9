"""Monte Carlo oracle for discrete GBM sums and GBM time integrals.

Ground truth for means, moments, survival probabilities and option payoffs,
with standard errors.  A single counter-based Philox stream and a fixed,
platform-independent draw layout (horizons first, then one flat normal
block per chunk) make every estimate bit-for-bit reproducible for a given
(seed, n_paths, horizon).  The draws run one chunk ahead on a worker
thread, which alone owns the stream and draws in that layout, while the
calling thread sums the paths of the chunk before; the statistic and the
accumulation stay serial on the calling thread, in chunk order, so results
cannot depend on scheduling.  The normals go into two buffers that take
turns, so neither can the memory a run holds.  Both simulators run through
one chunk loop; the path sums work in row tiles of at most ``_TILE_ELEMENTS``
normals, so every temporary stays in a core's L2 cache.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .params import as_reduced, require_finite

_MAX_CHUNK_ELEMENTS = 4_000_000
_BUFFER_BLOCK = 1 << 18  # normals (2 MiB)
_TILE_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class FixedHorizon:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"fixed horizon must be >= 1, got {self.n}")


@dataclass(frozen=True)
class GeometricHorizon:
    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ParameterError(f"geometric horizon needs 0 < p <= 1, got {self.p}")


@dataclass(frozen=True)
class GeneralHorizon:
    """P(N = k+1) = weights[k]; weights must sum to 1 within 1e-10."""

    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ParameterError("horizon weights must be finite, >= 0 and a non-empty 1-d array")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ParameterError(f"horizon weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "weights", tuple(float(v) for v in w / w.sum()))


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    seed: int
    antithetic: bool = False
    horizon: object = field(default_factory=lambda: FixedHorizon(1))

    def __post_init__(self):
        if self.n_paths < 1000:
            raise ParameterError(f"n_paths must be >= 1000, got {self.n_paths}")
        if self.antithetic and self.n_paths % 2:
            raise ParameterError("antithetic pairing needs an even n_paths")
        if not isinstance(self.horizon, (FixedHorizon, GeometricHorizon, GeneralHorizon)):
            raise ParameterError(f"unknown horizon {self.horizon!r}")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_paths: int


def _typical_horizon(horizon) -> int:
    if isinstance(horizon, FixedHorizon):
        return horizon.n
    if isinstance(horizon, GeometricHorizon):
        return max(1, int(math.ceil(1.0 / horizon.p)))
    return len(horizon.weights)


def _chunk_size(horizon) -> int:
    return max(1, min(1 << 16, _MAX_CHUNK_ELEMENTS // _typical_horizon(horizon)))


def _draw_horizons(rng: np.random.Generator, horizon, count: int) -> np.ndarray:
    if isinstance(horizon, FixedHorizon):
        return np.full(count, horizon.n, dtype=np.int64)
    if isinstance(horizon, GeometricHorizon):
        return rng.geometric(horizon.p, size=count).astype(np.int64)
    w = np.asarray(horizon.weights)
    return rng.choice(w.size, size=count, p=w).astype(np.int64) + 1


class _Accumulator:
    """Streaming mean / standard error over the columns of (paths, k) samples.

    Each chunk's count, mean and sum of squared deviations are merged into
    the running ones with the update of Chan, Golub and LeVeque (1983), so
    the variance never comes from the difference E[x^2] - mean^2, which
    cancels for statistics whose spread is small against their mean.
    """

    def __init__(self):
        self.n = 0
        self.mean = None
        self.m2 = None

    def add(self, samples: np.ndarray):
        n_b = samples.shape[0]
        mean_b = samples.mean(axis=0)
        m2_b = ((samples - mean_b) ** 2).sum(axis=0)
        if self.mean is None:
            self.n, self.mean, self.m2 = n_b, mean_b, m2_b
            return
        n = self.n + n_b
        delta = mean_b - self.mean
        self.mean = self.mean + delta * (n_b / n)
        self.m2 = self.m2 + m2_b + delta**2 * (self.n * n_b / n)
        self.n = n

    def estimates(self, n_paths: int) -> list[McEstimate]:
        se = np.sqrt(self.m2 / max(self.n - 1, 1) / self.n)
        return [McEstimate(float(m), float(s), n_paths) for m, s in zip(self.mean, se)]


class _Buffer:
    """Float scratch that is reused from chunk to chunk and only grows.

    It grows in whole blocks of ``_BUFFER_BLOCK`` elements, so ragged chunks
    of one run, whose sizes scatter far less than a block, share one size
    whatever the seed.
    """

    def __init__(self):
        self._data = np.empty(0)

    def take(self, n: int) -> np.ndarray:
        if n > self._data.size:
            self._data = np.empty(-(-n // _BUFFER_BLOCK) * _BUFFER_BLOCK)
        return self._data[:n]


def _drawn_ahead(draw, counts, consume):
    """Call consume(*draw(count, buffer)) for each count in order, one chunk ahead.

    draw runs on one worker thread, so the chunk after the one being
    consumed is drawn meanwhile; the draws follow each other in order on
    that thread, and consume sees them in the same order on the calling
    thread.  draw writes its normals into buffer, one of two that take
    turns: a chunk's buffer is handed to a new draw only after consume has
    returned from that chunk.  The normals thus live in the same two
    buffers all run long, and the memory a run holds does not depend on
    how the threads are scheduled.
    """
    buffers = (_Buffer(), _Buffer())
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, counts[0], buffers[0])
        for i, count in enumerate(counts[1:], start=1):
            ready = pending.result()
            pending = pool.submit(draw, count, buffers[i % 2])
            consume(*ready)
        consume(*pending.result())


def path_partial_product_sums(z: np.ndarray, offsets: np.ndarray,
                              scale: np.ndarray, drift: np.ndarray,
                              antithetic: bool = False):
    """Per-path sums of running products of log-normal factors.

    Path p owns z[offsets[p]:offsets[p+1]]; its result is
    sum_i exp(sum_{k<=i} (scale[p] * z_k + drift[p])), computed as
    exp(C_i + i * drift[p]) with C the running sum of scale[p] * z.  Returns
    the tuple (sums,), or with ``antithetic=True`` (sums, antithetic_sums),
    the second holding the sums of the flipped normals -z, that is of
    exp(i * drift[p] - C_i).
    """
    lengths = np.diff(offsets)
    out = np.zeros(lengths.size)
    out_anti = np.zeros(lengths.size) if antithetic else None
    longest = int(lengths.max(initial=0))
    steps = np.arange(1, longest + 1, dtype=float)
    cols = np.arange(longest)
    size = max(_TILE_ELEMENTS, longest)
    # scratch for one tile: the running sums C, k * drift, and exponentials
    c_buf, kd_buf, e_buf = np.empty(size), np.empty(size), np.empty(size)
    order = np.argsort(lengths, kind="stable")
    bounds = np.flatnonzero(np.diff(lengths[order])) + 1
    for group in np.split(order, bounds):
        length = int(lengths[group[0]])
        if length == 0:
            continue
        # A stable sort keeps a group ascending, so a run of adjacent paths
        # spans exactly group.size consecutive indices.
        first = int(offsets[group[0]])
        adjacent = int(group[-1] - group[0]) == group.size - 1
        rows = max(1, _TILE_ELEMENTS // length)
        for start in range(0, group.size, rows):
            tile = group[start:start + rows]
            shape = (tile.size, length)
            c = c_buf[:tile.size * length].reshape(shape)
            if adjacent:
                lo = first + start * length
                np.multiply(z[lo:lo + c.size].reshape(shape), scale[tile][:, None], out=c)
            else:
                np.take(z, offsets[tile][:, None] + cols[:length], out=c)
                c *= scale[tile][:, None]
            kd = kd_buf[:c.size].reshape(shape)
            e = e_buf[:c.size].reshape(shape)
            np.cumsum(c, axis=1, out=c)
            np.multiply.outer(drift[tile], steps[:length], out=kd)
            np.add(c, kd, out=e)
            out[tile] = np.exp(e, out=e).sum(axis=1)
            if antithetic:
                np.subtract(kd, c, out=e)
                out_anti[tile] = np.exp(e, out=e).sum(axis=1)
    return (out, out_anti) if antithetic else (out,)


def _simulate(cfg: McConfig, chunk: int, draw_values, path_values, statistic):
    """E[statistic] over cfg.n_paths paths: the one chunk loop of both simulators.

    draw_values(rng, count) draws a chunk's per-path values and says how many
    normals follow them; path_values(values, z) makes the path values, with
    the antithetic twins second, as path_partial_product_sums orders them.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    primaries = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    acc = _Accumulator()

    def draw(count, buffer):
        values, normals = draw_values(rng, count)
        return values, rng.standard_normal(out=buffer.take(normals))

    def add(values, z):
        columns = [np.asarray(statistic(x), dtype=float) for x in path_values(values, z)]
        samples = columns[0] if len(columns) == 1 else 0.5 * (columns[0] + columns[1])
        samples = np.atleast_2d(samples.T).T
        finite = np.isfinite(samples).all(axis=0)
        if not finite.all():
            raise ParameterError(f"statistic column {int(np.argmin(finite))} is not finite "
                                 "on some path, so its Monte Carlo estimate would not be")
        acc.add(samples)

    _drawn_ahead(draw, [min(chunk, primaries - i) for i in range(0, primaries, chunk)], add)
    ests = acc.estimates(cfg.n_paths)
    return ests[0] if len(ests) == 1 else ests


def simulate_sum(params, cfg: McConfig, statistic):
    """Estimate E[statistic(X_horizon)] for the discrete GBM sum.

    Each path multiplies i.i.d. log-normal factors (log-mean rho - beta/2,
    log-variance beta) cumulatively and sums the running products.  The
    statistic must be vectorized; it may return one column per path or a
    (paths, k) array, in which case a list of estimates is returned.
    Antithetic pairing shares the horizon draw and flips the normals.
    """
    rp = as_reduced(params)
    scale = math.sqrt(rp.beta)
    drift = rp.rho - 0.5 * rp.beta

    def draw_offsets(rng, count):
        offsets = np.concatenate([[0], np.cumsum(_draw_horizons(rng, cfg.horizon, count))])
        return offsets, offsets[-1]

    def path_sums(offsets, z):
        count = offsets.size - 1
        return path_partial_product_sums(z, offsets, np.full(count, scale),
                                         np.full(count, drift), cfg.antithetic)

    return _simulate(cfg, _chunk_size(cfg.horizon), draw_offsets, path_sums, statistic)


def simulate_time_integral(sigma: float, m: float, substeps: int, cfg: McConfig,
                           statistic=None, T: float | None = None,
                           lam: float | None = None):
    """Left-Riemann estimate of the GBM time integral over [0, T].

    Exactly one of T (fixed maturity) and lam (exponential maturity drawn
    per path) must be given.  Used to validate the continuous-time limit
    laws empirically.
    """
    if substeps < 100:
        raise ParameterError(f"substeps must be >= 100, got {substeps}")
    if (T is None) == (lam is None):
        raise ParameterError("give exactly one of T and lam")
    require_finite(sigma=sigma, m=m)
    if T is not None and not (0.0 < T < math.inf):
        raise ParameterError(f"T must be positive and finite, got {T}")
    if lam is not None and not (0.0 < lam < math.inf):
        raise ParameterError(f"lam must be positive and finite, got {lam}")
    if statistic is None:
        statistic = lambda y: y  # noqa: E731 - identity default
    n_inner = substeps - 1  # the t = 0 term of the Riemann sum is exp(0) = 1

    def draw_maturities(rng, count):
        maturities = np.full(count, float(T)) if lam is None else rng.exponential(1.0 / lam, count)
        return maturities, count * n_inner

    def integrals(maturities, z):
        offsets = np.arange(maturities.size + 1, dtype=np.int64) * n_inner
        dt = maturities / substeps
        partial = path_partial_product_sums(z, offsets, sigma * np.sqrt(dt),
                                            (m - 0.5 * sigma**2) * dt, cfg.antithetic)
        return [dt * (1.0 + p) for p in partial]

    return _simulate(cfg, _chunk_size(FixedHorizon(substeps)), draw_maturities, integrals,
                     statistic)
