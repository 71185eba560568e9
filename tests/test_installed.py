"""Checks of the package as it is installed, each in a fresh interpreter.

Tier-1 runs this module against src.  CI also runs it outside the checkout,
against `pip install .` in an environment with numpy alone, so it imports
neither scipy nor mpmath."""

import os
import subprocess
import sys
from pathlib import Path

import gbmsum


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # the continuous-time laws (density at p > 0 writes yor_pdf beside the discrete
    # law, annuity the continuous shortfall) and an Asian price, with every import
    # of scipy made to fail, as where numpy alone is installed
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
            "from gbmsum.cli import main\n"
            "runs = [['density', '--beta', '0.1', '--rho', '0', '--p', '0.01'],\n"
            "        ['annuity', '--beta', '1', '--rho', '0', '--p', '0.1'],\n"
            "        ['asian', '--s0', '100', '--strike', '100', '--rate', '0.1',\n"
            "         '--sigma', '0.2', '--maturity', '1', '--fixings', '10']]\n"
            "print([main(argv + ['--out', sys.argv[1] + '/' + argv[0]]) for argv in runs])\n")
    src = str(Path(gbmsum.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0]"
