"""The path-sum kernel against a sequential reference, and the MC draw layout."""

import math

import numpy as np
import pytest

import gbmsum as g
from gbmsum import mc


def reference_sums(z, offsets, scale, drift):
    """One path at a time, one exp per step: sum_i exp(sum_{k<=i} (s z_k + d))."""
    out = np.zeros(offsets.size - 1)
    for p in range(offsets.size - 1):
        acc = logw = 0.0
        for k in range(offsets[p], offsets[p + 1]):
            logw += scale[p] * z[k] + drift[p]
            acc += math.exp(logw)
        out[p] = acc
    return out


def max_rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))


@pytest.fixture
def ragged():
    """Ragged paths: empty ones, a path longer than a tile, adjacent runs of
    one length spanning several tiles, and scattered lengths in between."""
    rng = np.random.default_rng(1)
    tile = mc._TILE_ELEMENTS
    scattered = rng.integers(0, 40, 3000)
    scattered[scattered == 20] = 21  # so the run below stays its length's only group
    lengths = np.concatenate([
        [0, 3],
        np.full(3 * tile // 20 + 7, 20),  # one adjacent run over 4 tiles
        scattered,  # gathered
        [tile + 123],  # longer than a tile
        [0],
    ]).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    z = rng.standard_normal(offsets[-1])
    scale = rng.uniform(0.05, 0.4, lengths.size)
    drift = rng.uniform(-0.1, 0.02, lengths.size)
    scale[-2], drift[-2] = 0.2, -0.05  # keep the long path's products finite
    return z, offsets, scale, drift


class TestPathSums:
    def test_matches_sequential_reference(self, ragged):
        z, offsets, scale, drift = ragged
        (out,) = mc.path_partial_product_sums(z, offsets, scale, drift)
        ref = reference_sums(z, offsets, scale, drift)
        lengths = np.diff(offsets)
        assert np.all(out[lengths == 0] == 0.0)
        assert max_rel(out, ref) <= 1e-12

    def test_antithetic_equals_flipped_normals(self, ragged):
        z, offsets, scale, drift = ragged
        out, out_anti = mc.path_partial_product_sums(z, offsets, scale, drift,
                                                     antithetic=True)
        (plain,) = mc.path_partial_product_sums(z, offsets, scale, drift)
        assert np.array_equal(out, plain)
        (flipped,) = mc.path_partial_product_sums(-z, offsets, scale, drift)
        assert max_rel(out_anti, flipped) <= 1e-12

    def test_small_tiles_give_the_same_sums(self, ragged, monkeypatch):
        z, offsets, scale, drift = ragged
        (ref,) = mc.path_partial_product_sums(z, offsets, scale, drift)
        monkeypatch.setattr(mc, "_TILE_ELEMENTS", 64)
        assert max_rel(*mc.path_partial_product_sums(z, offsets, scale, drift),
                       ref) <= 1e-12

    def test_backend_name(self):
        assert g.backend_name() == "numpy"


class TestDrawLayout:
    def test_multi_chunk_run_matches_serial_recomputation(self):
        # horizons first, then one flat normal block, chunk after chunk
        weights = np.zeros(3000)
        weights[:3] = (0.5, 0.3, 0.2)
        horizon = g.GeneralHorizon(tuple(weights))
        cfg = g.McConfig(n_paths=5000, seed=7, horizon=horizon)
        rp = g.ReducedParams(beta=0.04, rho=-0.01)
        seen = []
        est = g.simulate_sum(rp, cfg, lambda x: seen.append(x.copy()) or x)

        rng = np.random.Generator(np.random.Philox(7))
        chunk = mc._chunk_size(horizon)
        assert chunk < cfg.n_paths
        expected = []
        for done in range(0, cfg.n_paths, chunk):
            count = min(chunk, cfg.n_paths - done)
            lengths = rng.choice(weights.size, size=count, p=np.asarray(horizon.weights)) + 1
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            z = rng.standard_normal(offsets[-1])
            expected.append(reference_sums(z, offsets, np.full(count, 0.2),
                                           np.full(count, -0.01 - 0.02)))
        assert [x.size for x in seen] == [x.size for x in expected]
        for got, ref in zip(seen, expected):
            assert max_rel(got, ref) <= 1e-12
        samples = np.concatenate(seen)
        assert est.value == pytest.approx(samples.mean(), rel=1e-14)
        assert est.std_error == pytest.approx(
            np.std(samples, ddof=1) / math.sqrt(samples.size), rel=1e-10)

    def test_time_integral_matches_serial_recomputation(self, monkeypatch):
        # maturities first, then count * (substeps - 1) normals, chunk after chunk;
        # a smaller chunk cap splits a run short enough for the Python reference
        monkeypatch.setattr(mc, "_MAX_CHUNK_ELEMENTS", 110_000)
        sigma, m, lam, substeps = 0.6, -0.2, 0.5, 100
        cfg = g.McConfig(n_paths=2400, seed=11, antithetic=True)
        seen = []
        est = g.simulate_time_integral(sigma, m, substeps, cfg, lam=lam,
                                       statistic=lambda y: seen.append(y.copy()) or y)

        rng = np.random.Generator(np.random.Philox(11))
        primaries = cfg.n_paths // 2
        chunk = mc._chunk_size(g.FixedHorizon(substeps))
        assert chunk < primaries
        expected = []
        for done in range(0, primaries, chunk):
            count = min(chunk, primaries - done)
            dt = rng.exponential(1.0 / lam, size=count) / substeps
            offsets = np.arange(count + 1) * (substeps - 1)
            z = rng.standard_normal(offsets[-1])
            scale, drift = sigma * np.sqrt(dt), (m - 0.5 * sigma**2) * dt
            # the primaries reach the statistic first, then their antithetic twins
            expected += [dt * (1.0 + reference_sums(z, offsets, scale, drift)),
                         dt * (1.0 + reference_sums(-z, offsets, scale, drift))]
        assert [y.size for y in seen] == [y.size for y in expected]
        for got, ref in zip(seen, expected):
            assert max_rel(got, ref) <= 1e-12
        pairs = 0.5 * (np.concatenate(expected[0::2]) + np.concatenate(expected[1::2]))
        assert est.value == pytest.approx(pairs.mean(), rel=1e-14)
