"""Backend parity and environment-flag selection for the path-sum kernel."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbmsum
from gbmsum import _kernels


def make_paths(rng, n_paths=5000):
    lengths = rng.integers(1, 40, n_paths).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    z = rng.standard_normal(offsets[-1])
    scale = rng.uniform(0.05, 0.4, n_paths)
    drift = rng.uniform(-0.1, 0.05, n_paths)
    return z, offsets, scale, drift


@pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba not installed")
class TestBackendParity:
    def test_path_sums(self):
        rng = np.random.default_rng(1)
        z, offsets, scale, drift = make_paths(rng)
        a = _kernels._path_sums_np(z, offsets, scale, drift)
        b = _kernels._path_sums_nb(z, offsets, scale, drift)
        assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)) <= 1e-12


class TestNumpyFallback:
    def test_zero_length_paths(self):
        offsets = np.array([0, 0, 3], dtype=np.int64)
        z = np.zeros(3)
        out = _kernels._path_sums_np(z, offsets, np.ones(2), np.zeros(2))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(3.0)


class TestEnvironmentFlag:
    def _probe(self, env_value):
        # The child must import the same gbmsum as this process, however it
        # got onto the path (PYTHONPATH=src, an install, pytest's pythonpath)
        # and from whatever working directory pytest was started in.
        package_root = str(Path(gbmsum.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, GBMSUM_BACKEND=env_value,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
        code = ("import gbmsum._kernels as k; print(k.backend_name())")
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
        )

    def test_numpy_forced(self):
        res = self._probe("numpy")
        assert res.returncode == 0
        assert res.stdout.strip() == "numpy"

    def test_invalid_value_rejected(self):
        res = self._probe("cuda")
        assert res.returncode != 0
        assert "GBMSUM_BACKEND must be auto, numba or numpy" in res.stderr
