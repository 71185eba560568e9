"""Monte Carlo oracle: determinism, variance reduction, cross-checks."""

import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import gbmsum as g
from gbmsum import ParameterError, mc


class TestConfig:
    def test_path_count_floor(self):
        with pytest.raises(ParameterError):
            g.McConfig(n_paths=10, seed=1)

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(ParameterError):
            g.McConfig(n_paths=1001, seed=1, antithetic=True)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: g.FixedHorizon(2.5), "n must be an integer >= 1, got 2.5",
                     id="fractional-horizon"),
        pytest.param(lambda: g.McConfig(n_paths=2000.0, seed=1),
                     "n_paths must be an integer >= 1000, got 2000.0", id="float-paths"),
        pytest.param(lambda: g.McConfig(n_paths=2000, seed=1.5),
                     "seed must be an integer >= 0, got 1.5", id="fractional-seed"),
        pytest.param(lambda: g.McConfig(n_paths=2000, seed=-1),
                     "seed must be an integer >= 0, got -1", id="negative-seed"),
        pytest.param(lambda: g.simulate_time_integral(1.0, 0.0, 100.5,
                                                      g.McConfig(n_paths=1000, seed=1), T=1.0),
                     "substeps must be an integer >= 100, got 100.5", id="fractional-substeps"),
    ])
    def test_refuses_a_count_that_is_no_integer(self, build, message):
        with pytest.raises(ParameterError, match=message):
            build()

    def test_counts_are_stored_as_int(self):
        cfg = g.McConfig(n_paths=np.int64(2000), seed=np.int32(0),
                         horizon=g.FixedHorizon(np.int64(5)))
        assert (type(cfg.n_paths), type(cfg.seed), type(cfg.horizon.n)) == (int, int, int)

    def test_horizon_validation(self):
        with pytest.raises(ParameterError):
            g.FixedHorizon(0)
        with pytest.raises(ParameterError):
            g.GeometricHorizon(0.0)
        with pytest.raises(ParameterError):
            g.GeneralHorizon((0.5, 0.4))

    @pytest.mark.parametrize("weights", [(math.nan,), (0.5, math.nan), (math.inf, 0.5)])
    def test_general_horizon_rejects_non_finite_weights(self, weights):
        with pytest.raises(ParameterError, match="finite"):
            g.GeneralHorizon(weights)


class TestDeterminism:
    def test_identical_runs(self):
        rp = g.ReducedParams(beta=0.5, rho=-0.1)
        cfg = g.McConfig(n_paths=20_000, seed=99, antithetic=True,
                         horizon=g.GeometricHorizon(0.2))
        a = g.simulate_sum(rp, cfg, lambda x: x)
        b = g.simulate_sum(rp, cfg, lambda x: x)
        assert a == b

    def test_identical_under_frequent_thread_switches(self):
        # eight chunks drawn one ahead on the worker thread while this one sums
        weights = (0.5, 0.3, 0.2) + (0.0,) * 3997
        rp = g.ReducedParams(beta=0.5, rho=-0.1)
        cfg = g.McConfig(n_paths=8000, seed=3, antithetic=True,
                         horizon=g.GeneralHorizon(weights))
        reference = g.simulate_sum(rp, cfg, lambda x: np.stack([x, x**2], axis=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [g.simulate_sum(rp, cfg, lambda x: np.stack([x, x**2], axis=1))
                    for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(run == reference for run in runs)

    def test_seed_changes_result(self):
        rp = g.ReducedParams(beta=0.5, rho=-0.1)
        a = g.simulate_sum(rp, g.McConfig(n_paths=20_000, seed=1,
                                          horizon=g.FixedHorizon(5)), lambda x: x)
        b = g.simulate_sum(rp, g.McConfig(n_paths=20_000, seed=2,
                                          horizon=g.FixedHorizon(5)), lambda x: x)
        assert a.value != b.value

    def test_multi_chunk_run_completes(self):
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        cfg = g.McConfig(n_paths=70_000, seed=5, horizon=g.FixedHorizon(120))
        est = g.simulate_sum(rp, cfg, lambda x: x)
        assert est.n_paths == 70_000


class TestDrawAhead:
    @staticmethod
    def _run(n_pieces):
        """Pieces tagged with their index and drawn into two buffers in turn;
        each is checked after the next one has been drawn."""
        buffers, drawn, seen = (mc._Buffer(), mc._Buffer()), [], []

        def pieces():
            for index in range(n_pieces):
                z = buffers[index % 2].take(1000)
                z.fill(index)
                drawn.append(index)
                yield index, z

        def consume(index, z):
            deadline = time.monotonic() + 10.0
            while len(drawn) < min(index + 2, n_pieces) and time.monotonic() < deadline:
                time.sleep(1e-4)
            assert len(drawn) == min(index + 2, n_pieces)  # one piece ahead, never two
            assert (z == index).all()
            seen.append(index)

        mc._drawn_ahead(pieces(), consume)
        return seen

    def test_piece_is_not_overwritten_while_consumed(self):
        assert self._run(40) == list(range(40))

    def test_two_buffers_serve_a_run(self, monkeypatch):
        # the normals of a whole run, 40 pieces in 3 chunks, live in two arrays
        arrays = []
        take = mc._Buffer.take

        def recorded(self, n):
            z = take(self, n)
            arrays.append(z.base)
            return z

        monkeypatch.setattr(mc._Buffer, "take", recorded)
        cfg = g.McConfig(n_paths=100_000, seed=1, horizon=g.FixedHorizon(100))
        g.simulate_sum(g.ReducedParams(beta=0.1, rho=-0.1), cfg, lambda x: x)
        assert len(arrays) == 40
        assert len({id(a) for a in arrays}) == 2

    def test_error_leaves_no_worker_thread(self):
        # an error in consume, then one in the draws, reaches the caller
        def consume(index, z):
            if index == 1:
                raise ParameterError("consume")

        def pieces():
            yield 0, None
            raise ParameterError("draw")

        before = threading.active_count()
        with pytest.raises(ParameterError, match="consume"):
            mc._drawn_ahead(((index, None) for index in range(10)), consume)
        assert threading.active_count() == before
        with pytest.raises(ParameterError, match="draw"):
            mc._drawn_ahead(pieces(), lambda index, z: None)
        assert threading.active_count() == before


class TestAgainstClosedForms:
    def test_fixed_horizon_mean(self):
        spec_rp = g.ReducedParams(beta=0.4**2 * 0.1, rho=0.1 * 0.1)
        cfg = g.McConfig(n_paths=400_000, seed=11, antithetic=True,
                         horizon=g.FixedHorizon(10))
        est = g.simulate_sum(spec_rp, cfg, lambda x: x)
        exact = g.mean_finite_sum(10, 0.1, 0.1, 1.0)
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_geometric_horizon_mean(self):
        # beta chosen so the tail exponent exceeds 2 and the mean estimator
        # has finite variance; the target E[X_N] = 10 is beta-independent
        rp = g.ReducedParams(beta=0.05, rho=0.0, p=0.1)
        cfg = g.McConfig(n_paths=500_000, seed=21, antithetic=True,
                         horizon=g.GeometricHorizon(0.1))
        est = g.simulate_sum(rp, cfg, lambda x: x)
        assert abs(est.value - 10.0) <= 3.0 * est.std_error

    def test_survival_statistic_matches_table(self, solved):
        rp = g.ReducedParams(beta=1.0, rho=0.0, p=0.1)
        cfg = g.McConfig(n_paths=1_000_000, seed=3,
                         horizon=g.GeometricHorizon(0.1))
        est = g.simulate_sum(rp, cfg, lambda x: (x > 10.0).astype(float))
        assert abs(est.value - 0.10852) <= 4.0 * est.std_error
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        assert abs(est.value - g.survival(F, 10.0)) <= 3.0 * est.std_error

    def test_general_horizon_mean(self):
        rp = g.ReducedParams(beta=0.02, rho=0.01)
        cfg = g.McConfig(n_paths=200_000, seed=8, antithetic=True,
                         horizon=g.GeneralHorizon((0.4, 0.0, 0.6)))
        est = g.simulate_sum(rp, cfg, lambda x: x)
        exact = 0.4 * g.mean_finite_sum(1, 0.01, 1.0, 1.0) + 0.6 * g.mean_finite_sum(
            3, 0.01, 1.0, 1.0
        )
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_inverse_moment_bound_respected(self):
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        cfg = g.McConfig(n_paths=200_000, seed=17, horizon=g.FixedHorizon(162))
        est = g.simulate_sum(rp, cfg, lambda x: 1.0 / x)
        bound = g.inverse_moment_bound(1, rp)
        assert est.value <= bound + 3.0 * est.std_error


class TestAntithetic:
    def test_variance_reduction_monotone_statistic(self):
        rp = g.ReducedParams(beta=0.05, rho=0.0)
        plain = g.simulate_sum(rp, g.McConfig(n_paths=100_000, seed=4,
                                              horizon=g.FixedHorizon(10)), lambda x: x)
        anti = g.simulate_sum(rp, g.McConfig(n_paths=100_000, seed=4, antithetic=True,
                                             horizon=g.FixedHorizon(10)), lambda x: x)
        assert anti.std_error <= plain.std_error


class TestStandardError:
    @pytest.mark.parametrize("n_paths, n", [(20_000, 10), (100_000, 100)])
    def test_low_variance_statistic_does_not_cancel(self, n_paths, n):
        # antithetic pairs of a nearly deterministic sum spread over ~100 ulps,
        # where E[x^2] - mean^2 cancels to zero; the second case spans 2 chunks
        rp = g.ReducedParams(beta=1e-14, rho=-0.1)
        cfg = g.McConfig(n_paths, seed=1, antithetic=True, horizon=g.FixedHorizon(n))
        seen = []
        est = g.simulate_sum(rp, cfg, lambda x: seen.append(x.copy()) or x)
        # each chunk's paths reach the statistic first, then their twins
        pairs = 0.5 * (np.concatenate(seen[0::2]) + np.concatenate(seen[1::2]))
        two_pass = np.std(pairs, ddof=1) / math.sqrt(pairs.size)
        assert two_pass > 0.0
        assert est.std_error == pytest.approx(two_pass, rel=1e-4, abs=0.0)
        assert est.value == pytest.approx(pairs.mean(), rel=1e-15, abs=0.0)


class TestTimeIntegral:
    def test_zero_volatility_is_riemann_sum(self):
        cfg = g.McConfig(n_paths=1000, seed=1)
        est = g.simulate_time_integral(1e-9, -0.5, 200, cfg, T=2.0)
        dt = 2.0 / 200
        det = sum(math.exp(-0.5 * k * dt) * dt for k in range(200))
        assert est.value == pytest.approx(det, abs=1e-9)

    def test_substep_refinement_consistent(self):
        cfg = g.McConfig(n_paths=50_000, seed=6, antithetic=True)
        a = g.simulate_time_integral(0.5, -0.3, 200, cfg, T=1.0)
        b = g.simulate_time_integral(0.5, -0.3, 400, cfg, T=1.0)
        assert abs(a.value - b.value) <= 3.0 * math.hypot(a.std_error, b.std_error) + 2e-3

    def test_exponential_maturity_matches_closed_law(self):
        sig, m, lam = 1.0, -0.5, 0.5
        cfg = g.McConfig(n_paths=60_000, seed=5, antithetic=True)
        for gq in (0.5, 1.5, 4.0):
            est = g.simulate_time_integral(
                sig, m, 400, cfg, statistic=lambda y, gq=gq: (y > gq).astype(float),
                lam=lam,
            )
            ref = g.yor_survival(gq, sig, m, lam)
            assert abs(est.value - ref) <= 3.0 * est.std_error + 1e-3

    @pytest.mark.parametrize("sigma,m,maturity", [
        (math.nan, 0.0, dict(T=1.0)), (1.0, math.inf, dict(T=1.0)),
        (1.0, 0.0, dict(T=math.nan)), (1.0, 0.0, dict(T=math.inf)),
        (1.0, 0.0, dict(lam=math.nan)), (1.0, 0.0, dict(lam=math.inf)),
    ], ids=["sigma-nan", "m-inf", "T-nan", "T-inf", "lam-nan", "lam-inf"])
    def test_rejects_non_finite(self, sigma, m, maturity):
        cfg = g.McConfig(n_paths=1000, seed=1)
        with pytest.raises(ParameterError, match="finite"):
            g.simulate_time_integral(sigma, m, 200, cfg, **maturity)

    def test_argument_validation(self):
        cfg = g.McConfig(n_paths=1000, seed=1)
        with pytest.raises(ParameterError):
            g.simulate_time_integral(1.0, 0.0, 50, cfg, T=1.0)  # substeps < 100
        with pytest.raises(ParameterError):
            g.simulate_time_integral(1.0, 0.0, 200, cfg)  # neither T nor lam
        with pytest.raises(ParameterError):
            g.simulate_time_integral(1.0, 0.0, 200, cfg, T=1.0, lam=0.5)


class TestMultiColumnStatistics:
    def test_column_estimates(self):
        rp = g.ReducedParams(beta=0.05, rho=0.0)
        cfg = g.McConfig(n_paths=50_000, seed=9, horizon=g.FixedHorizon(5))
        ests = g.simulate_sum(rp, cfg, lambda x: np.stack([x, x**2], axis=1))
        assert len(ests) == 2
        assert ests[1].value >= ests[0].value ** 2


class TestNonFiniteEstimates:
    """A statistic that is not finite on some path stops the run, naming its column."""

    RP = g.ReducedParams(beta=0.1, rho=0.0)

    @staticmethod
    def _one_inf(x):
        y = x.copy()
        y[0] = math.inf
        return y

    @staticmethod
    def _nan_column(x):
        return np.stack([x, np.full_like(x, math.nan)], axis=1)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("statistic, column", [("_one_inf", 0), ("_nan_column", 1)])
    def test_both_simulators_raise(self, antithetic, statistic, column):
        statistic = getattr(self, statistic)
        cfg = g.McConfig(n_paths=2000, seed=1, antithetic=antithetic,
                         horizon=g.FixedHorizon(10))
        message = f"statistic column {column} is not finite"
        with pytest.raises(ParameterError, match=message):
            g.simulate_sum(self.RP, cfg, statistic)
        with pytest.raises(ParameterError, match=message):
            g.simulate_time_integral(1.0, 0.0, 100, cfg, statistic=statistic, T=1.0)

    def test_error_leaves_no_worker_thread(self):
        # three chunks, so the next one is being drawn when the first one raises
        cfg = g.McConfig(n_paths=100_000, seed=1, horizon=g.FixedHorizon(100))
        assert mc._chunk_size(cfg.horizon) < cfg.n_paths // 2
        before = threading.active_count()
        with pytest.raises(ParameterError):
            g.simulate_sum(self.RP, cfg, self._one_inf)
        assert threading.active_count() == before


class TestChunkMemory:
    def test_long_horizon_chunk_stays_under_the_cap(self, monkeypatch):
        # a chunk of 20_000-step paths holds 200 of them, not 1000
        requests = []
        take = mc._Buffer.take
        monkeypatch.setattr(mc._Buffer, "take",
                            lambda self, n: requests.append(int(n)) or take(self, n))
        cfg = g.McConfig(n_paths=1000, seed=1, horizon=g.FixedHorizon(20_000))
        g.simulate_sum(g.ReducedParams(beta=0.01, rho=-0.01), cfg, lambda x: x)
        assert sum(requests) == 1000 * 20_000
        assert max(requests) <= max(mc._MAX_CHUNK_ELEMENTS, 20_000)
        assert max(requests) <= max(mc._PIECE_ELEMENTS, 20_000)

    def test_two_chunks_hold_pieces_not_chunks(self):
        # 200_000 antithetic paths of 80 steps: two chunks of 4M normals (32 MB)
        cfg = g.McConfig(n_paths=200_000, seed=1, antithetic=True, horizon=g.FixedHorizon(80))
        assert mc._chunk_size(cfg.horizon) == cfg.n_paths // 4
        tracemalloc.start()
        try:
            g.simulate_sum(g.ReducedParams(beta=0.05, rho=-0.2), cfg, lambda x: x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_geometric_chunk_sums_do_not_depend_on_the_pieces(self):
        # each path's sum is its own: whole chunk or piece by piece, bit for bit
        rng = np.random.Generator(np.random.Philox(3))
        offsets = np.concatenate([[0], np.cumsum(rng.geometric(0.01, 20_000))])
        z = rng.standard_normal(offsets[-1])
        count = offsets.size - 1
        scale, drift = np.full(count, 0.07), np.full(count, -0.0025)
        whole = mc.path_partial_product_sums(z, offsets, scale, drift, antithetic=True)
        bounds = mc._piece_bounds(offsets)
        assert len(bounds) > 4
        pieces = [mc.path_partial_product_sums(z[offsets[a]:offsets[b]],
                                               offsets[a:b + 1] - offsets[a], scale[a:b],
                                               drift[a:b], antithetic=True)
                  for a, b in zip(bounds, bounds[1:])]
        for k in range(2):
            assert np.array_equal(np.concatenate([p[k] for p in pieces]), whole[k])

    def test_padding_past_a_path_end_cannot_overflow(self):
        # 40 one-step paths of z = 20, then a 40-step path: they share a padded
        # tile, whose rows read on into the next paths' normals; their running
        # sums would reach 800 there, where exp overflows
        offsets = np.arange(42)
        offsets[-1] = 80
        z = np.concatenate([np.full(40, 20.0), np.full(40, -1.0)])
        count = offsets.size - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, anti = mc.path_partial_product_sums(z, offsets, np.ones(count),
                                                     np.zeros(count), antithetic=True)
        assert np.array_equal(out[:40], np.full(40, math.exp(20.0)))
        assert np.array_equal(anti[:40], np.full(40, math.exp(-20.0)))
        assert out[40] == pytest.approx(sum(math.exp(-k) for k in range(1, 41)), rel=1e-14, abs=0.0)
