"""The Monte Carlo path-sum kernel, in numpy.

Paths are grouped by length and summed in row tiles of at most
``_TILE_ELEMENTS`` normals, so every temporary stays in a core's L2 cache.
The grid operator is not here: it is dense blocks of kernel rows applied
with ``np.matmul`` (``solver.GaussianStepOperator``).
"""

from __future__ import annotations

import numpy as np

_TILE_ELEMENTS = 1 << 16


def backend_name() -> str:
    return "numpy"


def path_partial_product_sums(z: np.ndarray, offsets: np.ndarray,
                              scale: np.ndarray, drift: np.ndarray,
                              antithetic: bool = False):
    """Per-path sums of running products of log-normal factors.

    Path p owns z[offsets[p]:offsets[p+1]]; its result is
    sum_i exp(sum_{k<=i} (scale[p] * z_k + drift[p])), computed as
    exp(C_i + i * drift[p]) with C the running sum of scale[p] * z.  With
    ``antithetic=True`` the sums of the flipped normals -z, that is of
    exp(i * drift[p] - C_i), are returned too, as a second array.
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
    return (out, out_anti) if antithetic else out
