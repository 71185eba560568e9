"""Checks of the package as it is installed, each in a fresh interpreter.

Tier-1 runs this module against src.  CI also runs it outside the checkout,
against `pip install .` in an environment with numpy alone, so it imports
neither scipy nor mpmath.  Each check runs `gbmsum.cli.main` in a subprocess."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbmsum

# what the gbmsum command runs
ENTRY_POINT = "import sys\nfrom gbmsum.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def python_run(code, *args):
    """The finished `python -c code *args`, run in a fresh interpreter that imports
    gbmsum from where this one does."""
    src = str(Path(gbmsum.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def fresh_python(code, *args):
    """stdout of python_run(code, *args); fails on a non-zero exit."""
    run = python_run(code, *args)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # the continuous-time laws (density at p > 0 writes yor_pdf beside the discrete
    # law, annuity the continuous shortfall), an Asian price and an antithetic Monte
    # Carlo run through the path-sum kernel, with every import of scipy made to fail,
    # as where numpy alone is installed
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
            "from gbmsum.cli import main\n"
            "runs = [['density', '--beta', '0.1', '--rho', '0', '--p', '0.01'],\n"
            "        ['annuity', '--beta', '1', '--rho', '0', '--p', '0.1'],\n"
            "        ['asian', '--s0', '100', '--strike', '100', '--rate', '0.1',\n"
            "         '--sigma', '0.2', '--maturity', '1', '--fixings', '10'],\n"
            "        ['mc', '--paths', '20000', '--seed', '1', '--horizon', 'geometric:0.1',\n"
            "         '--beta', '1', '--rho', '0', '--antithetic']]\n"
            "print([main(argv + ['--out', sys.argv[1] + '/' + argv[0]]) for argv in runs])\n")
    assert fresh_python(code, str(tmp_path)).splitlines()[-1] == "[0, 0, 0, 0]"
    assert math.isfinite(json.loads((tmp_path / "mc" / "mc_report.json").read_text())["value"])


def run_cli(argv, out):
    """out, after gbmsum.cli.main(argv + ['--out', out]) exits 0 in a fresh interpreter."""
    fresh_python(ENTRY_POINT, *argv, "--out", str(out))
    return out


ASIAN = ["asian", "--s0", "100", "--rate", "0.1", "--sigma", "0.2", "--maturity", "1"]


def test_long_asian_lists_no_warning(tmp_path):
    # a narrow-band Asian power in its two stages: 15 steps at bw = 49 on 4686 points,
    # then 984 at bw = 25 on every other node (2343 points), whose operator has a
    # resolution bound of its own, which 2h meets
    out = run_cli(ASIAN + ["--strike", "100", "--fixings", "1000"], tmp_path)
    assert json.loads((out / "asian.manifest.json").read_text())["warnings"] == []


def test_one_fixing_asian_is_black_scholes(tmp_path):
    # the closed-form Black-Scholes call and put, in the report and in the csv's price
    # and put_price columns, which hold 17 digits
    out = run_cli(ASIAN + ["--strike", "100", "--fixings", "1", "--strict"], tmp_path)
    report = json.loads((out / "asian_report.json").read_text())
    row = list(csv.reader((out / "asian.csv").open()))[1]
    call, put = 13.269676584660893, 3.753418388256833
    for value, bs in [(report["call"], call), (float(row[2]), call),
                      (report["put"], put), (float(row[3]), put)]:
        assert abs(value / bs - 1.0) <= 1e-12


def test_far_one_fixing_call_passes_strict(tmp_path):
    # a call of ~4.8e-47 reads no grid, so no grid check escalates under --strict
    run_cli(ASIAN + ["--strike", "2000", "--fixings", "1", "--strict"], tmp_path)


@pytest.mark.parametrize("argv, status, error", [
    pytest.param(["moments", "--beta", "1", "--rho", "-0.1", "--kmax", "39"], 0, None,
                 id="moment-past-the-largest-float"),
    pytest.param(["asian", "--s0", "100", "--strike", "100", "--rate", "800", "--sigma", "0.4",
                  "--maturity", "1", "--fixings", "10"], 2, "error: the mean of the 10-term sum",
                 id="asian-overflowing-mean"),
])
def test_extreme_law_exit_status(tmp_path, argv, status, error):
    # a law at the edge of the float range exits 0 or 2 with a named error, never 1
    # with a traceback
    run = python_run(ENTRY_POINT, *argv, "--out", str(tmp_path))
    assert run.returncode == status, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr == "" if error is None else run.stderr.startswith(error)
