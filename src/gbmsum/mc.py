"""Monte Carlo oracle for discrete GBM sums and GBM time integrals.

Ground truth for means, moments, survival probabilities and option payoffs,
with standard errors.  A single counter-based Philox stream and a fixed,
platform-independent draw layout (per chunk, the per-path values first, then
one flat block of normals) make every estimate bit-for-bit reproducible for
a given (seed, n_paths, horizon).  A worker thread, which alone owns the
stream, draws each chunk's normals in path-aligned pieces of at most
``_PIECE_ELEMENTS`` normals, one piece ahead, into two buffers that take
turns; the calling thread sums the paths of the piece before.  The
statistic and the accumulation run once per chunk, serial on the calling
thread and in chunk order, so neither the results nor the memory a run
holds can depend on scheduling.  Both simulators run through one chunk
loop; the path sums work in row tiles of at most ``_TILE_ELEMENTS``
normals, so every temporary stays in a core's L2 cache."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .params import as_reduced, require_count, require_finite, require_positive

_MAX_CHUNK_ELEMENTS = 4_000_000
_PIECE_ELEMENTS = 1 << 18  # normals (2 MiB)
_TILE_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class FixedHorizon:
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", require_count("fixed horizon n", self.n))


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
        object.__setattr__(self, "n_paths", require_count("n_paths", self.n_paths, least=1000))
        object.__setattr__(self, "seed", require_count("seed", self.seed, least=0))
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
    """Normals scratch of one piece, reused from piece to piece.

    It holds ``_PIECE_ELEMENTS`` normals and grows only for a path longer
    than that, so the pieces of one run share one size whatever the seed.
    """

    def __init__(self):
        self._data = np.empty(0)

    def take(self, n: int) -> np.ndarray:
        if n > self._data.size:
            self._data = np.empty(max(n, _PIECE_ELEMENTS))
        return self._data[:n]


def _drawn_ahead(pieces, consume):
    """Call consume(*piece) for each piece of the iterator pieces, one piece ahead.

    One worker thread draws the piece after the one being consumed, in one
    pending next(pieces); the draw after that is submitted once that piece
    is taken, after consume has returned from the one before, so an
    iterator that draws into two buffers in turn never overwrites a piece
    that is being consumed.  An error on either thread reaches the caller,
    and the pool's exit joins the worker.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        drawn = pool.submit(next, pieces, None)
        while (piece := drawn.result()) is not None:
            drawn = pool.submit(next, pieces, None)
            consume(*piece)


def _piece_bounds(offsets: np.ndarray) -> list[int]:
    """Path indices that cut a chunk into pieces of at most ``_PIECE_ELEMENTS``
    normals, or of one path where a path is longer."""
    bounds = [0]
    while bounds[-1] < offsets.size - 1:
        first = bounds[-1]
        last = int(np.searchsorted(offsets, offsets[first] + _PIECE_ELEMENTS, side="right")) - 1
        bounds.append(max(last, first + 1))
    return bounds


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

    The paths, sorted by length, go through row tiles of at most
    ``_TILE_ELEMENTS`` elements, so every temporary stays in a core's L2
    cache.  A tile of unequal paths pads each row to one past its longest
    path; its rows are at most 9/8 as wide as its first, so that little of
    it is padding.  The padding's running sums are set to 0, so its
    exponentials stay finite, and the last padding cell of each row is set
    to 0 after the exponential: the next row's sum starts from that cell.
    Every sum is thus numpy's pairwise sum of the path's own terms, whatever
    tile it lands in.
    """
    lengths = np.diff(offsets)
    out = np.zeros(lengths.size)
    out_anti = np.zeros(lengths.size) if antithetic else None
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    longest = int(ordered[-1]) if ordered.size else 0
    steps = np.arange(1, longest + 2, dtype=float)
    cols = np.arange(longest + 1)
    # one drift for all paths (simulate_sum, or a fixed maturity) needs one row of k * drift
    drift_row = drift[0] * steps if drift.size and np.all(drift == drift[0]) else None
    size = max(_TILE_ELEMENTS, longest + 1)
    # scratch for one tile: the running sums C, k * drift, the exponentials after
    # one cell of 0, where the first row's sum starts, and the gather indices
    c_buf, kd_buf, e_buf = np.empty(size), np.empty(size), np.empty(size + 1)
    e_buf[0] = 0.0
    index_buf = np.empty(size, dtype=np.int64)
    start = int(np.searchsorted(ordered, 1))  # empty paths sum to 0
    while start < order.size:
        # rows at most 9/8 as wide as the first, as many as fill the tile at
        # that width; a thin run of long paths takes rows on up to an eighth of it
        first_width = int(ordered[start]) + 1
        stop = int(np.searchsorted(ordered, first_width + first_width // 8 - 1, side="right"))
        longest_row = int(ordered[stop - 1])
        rows = min(stop - start, size // (longest_row + (longest_row >= first_width)))
        if rows * int(ordered[start + rows - 1] + 1) < size // 8:
            window = ordered[start:start + size // (8 * first_width)]
            cells = np.arange(1, window.size + 1) * (window + 1)
            rows = max(rows, int(np.searchsorted(cells, size // 8, side="right")))
        tile, tile_lengths = order[start:start + rows], ordered[start:start + rows]
        start += rows
        padded = int(tile_lengths[0]) < int(tile_lengths[-1])
        width = int(tile_lengths[-1]) + padded
        shape = (rows, width)
        c = c_buf[:rows * width].reshape(shape)
        firsts = offsets[tile]
        # A stable sort keeps equal lengths ascending, so a tile of adjacent
        # equal paths is one slice of z.
        if not padded and int(tile[-1] - tile[0]) == rows - 1:
            np.multiply(z[firsts[0]:firsts[0] + c.size].reshape(shape), scale[tile][:, None],
                        out=c)
        else:
            index = np.add(firsts[:, None], cols[:width], out=index_buf[:c.size].reshape(shape))
            # padding reads the normals after a path, or repeats z[-1] past the end
            np.take(z, index, out=c, mode="clip")
            c *= scale[tile][:, None]
        np.cumsum(c, axis=1, out=c)
        if drift_row is None:
            kd = np.multiply.outer(drift[tile], steps[:width], out=kd_buf[:c.size].reshape(shape))
        else:
            kd = drift_row[:width]
        e = e_buf[1:1 + c.size].reshape(shape)
        if padded:
            np.copyto(c, 0.0, where=cols[:width] >= tile_lengths[:, None])
            heads = np.arange(rows) * width
            segments = np.stack([heads, heads + tile_lengths + 1], axis=1).ravel()[:-1]
        for sums, flip in ((out, False), (out_anti, True))[:1 + antithetic]:
            if flip:
                np.subtract(kd, c, out=e)
            else:
                np.add(c, kd, out=e)
            np.exp(e, out=e)
            if padded:
                e[:, -1] = 0.0
                sums[tile] = np.add.reduceat(e_buf[:e.size], segments)[::2]
            else:
                sums[tile] = e.sum(axis=1)
    return (out, out_anti) if antithetic else (out,)


def _simulate(cfg: McConfig, chunk: int, draw_values, path_values, statistic):
    """E[statistic] over cfg.n_paths paths: the one chunk loop of both simulators.

    draw_values(rng, count) draws a chunk's per-path values and returns them
    with the offsets of the paths' normals; path_values(values, offsets,
    first, last, z) makes the values of paths first to last - 1 from their
    normals z, with the antithetic twins second, as path_partial_product_sums
    orders them.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    primaries = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    acc = _Accumulator()
    columns = []

    def pieces():
        buffers, turn = (_Buffer(), _Buffer()), 0
        for done in range(0, primaries, chunk):
            values, offsets = draw_values(rng, min(chunk, primaries - done))
            bounds = _piece_bounds(offsets)
            for first, last in zip(bounds, bounds[1:]):
                n = int(offsets[last] - offsets[first])
                z = rng.standard_normal(out=buffers[turn].take(n))
                turn ^= 1
                yield values, offsets, first, last, z

    def add(values, offsets, first, last, z):
        parts = path_values(values, offsets, first, last, z)
        if first == 0:
            columns[:] = [np.empty(offsets.size - 1) for _ in parts]
        for column, part in zip(columns, parts):
            column[first:last] = part
        if last < offsets.size - 1:
            return
        stats = [np.asarray(statistic(x), dtype=float) for x in columns]
        samples = stats[0] if len(stats) == 1 else 0.5 * (stats[0] + stats[1])
        samples = np.atleast_2d(samples.T).T
        finite = np.isfinite(samples).all(axis=0)
        if not finite.all():
            raise ParameterError(f"statistic column {int(np.argmin(finite))} is not finite "
                                 "on some path, so its Monte Carlo estimate would not be")
        acc.add(samples)

    _drawn_ahead(pieces(), add)
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
        return None, np.concatenate([[0], np.cumsum(_draw_horizons(rng, cfg.horizon, count))])

    def path_sums(_, offsets, first, last, z):
        count = last - first
        return path_partial_product_sums(z, offsets[first:last + 1] - offsets[first],
                                         np.full(count, scale), np.full(count, drift),
                                         cfg.antithetic)

    return _simulate(cfg, _chunk_size(cfg.horizon), draw_offsets, path_sums, statistic)


def simulate_time_integral(sigma: float, m: float, substeps: int, cfg: McConfig,
                           statistic=None, T: float | None = None,
                           lam: float | None = None):
    """Left-Riemann estimate of the GBM time integral over [0, T].

    Exactly one of T (fixed maturity) and lam (exponential maturity drawn
    per path) must be given.  Used to validate the continuous-time limit
    laws empirically.
    """
    substeps = require_count("substeps", substeps, least=100)
    if (T is None) == (lam is None):
        raise ParameterError("give exactly one of T and lam")
    require_finite(sigma=sigma, m=m)
    require_positive(**({"T": T} if lam is None else {"lam": lam}))
    if statistic is None:
        statistic = lambda y: y  # noqa: E731 - identity default
    n_inner = substeps - 1  # the t = 0 term of the Riemann sum is exp(0) = 1

    def draw_maturities(rng, count):
        maturities = np.full(count, float(T)) if lam is None else rng.exponential(1.0 / lam, count)
        return maturities, np.arange(count + 1, dtype=np.int64) * n_inner

    def integrals(maturities, offsets, first, last, z):
        dt = maturities[first:last] / substeps
        partial = path_partial_product_sums(z, offsets[:last - first + 1], sigma * np.sqrt(dt),
                                            (m - 0.5 * sigma**2) * dt, cfg.antithetic)
        return [dt * (1.0 + p) for p in partial]

    return _simulate(cfg, _chunk_size(FixedHorizon(substeps)), draw_maturities, integrals,
                     statistic)
