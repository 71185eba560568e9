"""CLI surface: files, exit codes, determinism, batch layouts."""

import csv
import dataclasses
import json
import math
import os

import pytest

from gbmsum import ConvergenceError, ParameterError, pricing, solver, tails
from gbmsum.cli import _Outputs, main


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestDensityCommand:
    def test_writes_outputs(self, tmp_path):
        out = str(tmp_path)
        code = main(["density", "--beta", "1", "--rho", "-0.1", "--out", out])
        assert code == 0
        rows = read_csv(os.path.join(out, "density.csv"))
        assert rows[0] == ["u", "x", "f", "f_continuous_limit"]
        assert len(rows) > 100
        report = json.load(open(os.path.join(out, "density_report.json")))
        assert report["report"]["final_delta"] <= 1e-8
        trace = report["report"]["delta_trace"]
        assert min(i + 1 for i, d in enumerate(trace) if d <= 1e-8) <= 150
        assert report["report"]["iterations"] == len(trace) + report["report"]["polish_matvecs"]
        manifest = json.load(open(os.path.join(out, "density.manifest.json")))
        assert set(manifest["outputs"]) == {"density.csv", "density_report.json"}

    def test_report_is_the_solve_report(self, tmp_path):
        assert main(["density", "--beta", "1", "--rho", "-0.1", "--out", str(tmp_path)]) == 0
        report = json.load(open(tmp_path / "density_report.json"))["report"]
        assert set(report) == {f.name for f in dataclasses.fields(solver.SolveReport)}

    def test_large_tail_exponent_writes_finite_values(self, tmp_path):
        # mu = 207.7: the tail closure's mass c x_max^-mu underflows to 0
        assert main(["density", "--beta", "0.001", "--rho", "-0.1", "--p", "0.5",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(str(tmp_path / "density.csv"))
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
        report = json.load(open(tmp_path / "density_report.json"))
        assert report["tail"]["exponent"] == pytest.approx(207.675, rel=1e-4, abs=0.0)

    def test_small_tail_exponent_caps_the_span(self, tmp_path):
        # mu = 0.028: the span the law would need, 719, overflowed a float on its
        # way to the cap; it is capped with a warning instead
        assert main(["density", "--beta", "0.359641", "--rho", "0.49595", "--p", "0.008954",
                     "--out", str(tmp_path)]) == 0
        warned = json.load(open(tmp_path / "density.manifest.json"))["warnings"]
        assert [w["category"] for w in warned] == ["AccuracyWarning"]
        assert "would need 719" in warned[0]["message"]

    def test_stopped_variant_runs(self, tmp_path):
        out = str(tmp_path)
        code = main(["density", "--beta", "1", "--rho", "0", "--p", "0.1",
                     "--umax", "14", "--out", out])
        assert code == 0
        report = json.load(open(os.path.join(out, "density_report.json")))
        assert report["tail"]["exponent"] == pytest.approx(1.17876434, rel=1e-6, abs=0.0)

    def test_certain_stopping_gives_one_period_law(self, tmp_path):
        out = str(tmp_path)
        assert main(["density", "--beta", "0.5", "--rho", "0.1", "--p", "1.0",
                     "--out", out]) == 0
        report = json.load(open(os.path.join(out, "density_report.json")))
        assert report["report"]["iterations"] == 0

    def test_overflowing_polish_norm_lists_only_accuracy_warnings(self, tmp_path):
        # at (4.9e-5, -0.01, 0.9) the polish's residual norm overflows and the tail
        # exponent is 573: numpy's overflow RuntimeWarnings are handled, not passed on
        assert main(["density", "--beta", "4.9e-5", "--rho", "-0.01", "--p", "0.9",
                     "--max-iter", "2000", "--out", str(tmp_path)]) == 0
        warned = json.load(open(tmp_path / "density.manifest.json"))["warnings"]
        assert [w for w in warned if w["category"] != "AccuracyWarning"] == []

    def test_infeasible_parameters_exit_2(self, tmp_path):
        assert main(["density", "--beta", "1", "--rho", "0.9",
                     "--out", str(tmp_path)]) == 2

    def test_non_convergence_exit_3(self, tmp_path):
        assert main(["density", "--beta", "1", "--rho", "-0.1", "--max-iter", "2",
                     "--out", str(tmp_path)]) == 3


class TestMeanOracleRecorded:
    @pytest.mark.parametrize("command, report_file, bound", [
        (["density", "--beta", "1", "--rho", "-0.1"], "density_report.json", 1e-5),
        (["annuity", "--beta", "1", "--rho", "0", "--p", "0.1", "--q-list", "0"],
         "annuity_report.json", 1e-5),
    ])
    def test_report_carries_mean_error(self, tmp_path, command, report_file, bound):
        assert main(command + ["--out", str(tmp_path)]) == 0
        report = json.load(open(os.path.join(str(tmp_path), report_file)))["report"]
        assert 0.0 <= report["mean_rel_err"] <= bound

    def test_infinite_mean_has_no_oracle(self, tmp_path):
        assert main(["density", "--beta", "1", "--rho", "0", "--out", str(tmp_path)]) == 0
        report = json.load(open(os.path.join(str(tmp_path), "density_report.json")))["report"]
        assert report["mean_rel_err"] is None


class TestAsianCommand:
    def test_price_and_diagnostics(self, tmp_path):
        out = str(tmp_path)
        code = main(["asian", "--s0", "100", "--strike", "100", "--rate", "0.1",
                     "--sigma", "0.4", "--maturity", "1", "--fixings", "10",
                     "--out", out])
        assert code == 0
        rows = read_csv(os.path.join(out, "asian.csv"))
        assert rows[0] == ["n", "s0", "price", "put_price"]
        assert float(rows[1][2]) == pytest.approx(12.0424, abs=5e-3)
        diag = json.load(open(os.path.join(out, "asian_report.json")))
        assert abs(diag["parity_gap_discrete"]) <= 1e-4

    def test_csv_price_round_trips(self, tmp_path):
        out = str(tmp_path)
        assert main(["asian", "--s0", "100", "--strike", "100", "--rate", "0.1",
                     "--sigma", "0.2", "--maturity", "1", "--fixings", "1", "--out", out]) == 0
        price = float(read_csv(os.path.join(out, "asian.csv"))[1][2])
        assert price == json.load(open(os.path.join(out, "asian_report.json")))["call"]

    def test_deterministic_output(self, tmp_path):
        args = ["asian", "--s0", "95", "--strike", "100", "--rate", "0.1",
                "--sigma", "0.4", "--maturity", "1", "--fixings", "25"]
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", a_dir]) == 0
        assert main(args + ["--out", b_dir]) == 0
        a = open(os.path.join(a_dir, "asian.csv"), "rb").read()
        b = open(os.path.join(b_dir, "asian.csv"), "rb").read()
        assert a == b

    def test_mc_check_recorded(self, tmp_path):
        out = str(tmp_path)
        code = main(["asian", "--s0", "100", "--strike", "100", "--rate", "0.1",
                     "--sigma", "0.4", "--maturity", "1", "--fixings", "10",
                     "--mc-check", "50000", "--seed", "7", "--out", out])
        assert code == 0
        diag = json.load(open(os.path.join(out, "asian_report.json")))
        est = diag["mc_check"]
        assert set(est) == {"value", "std_error", "n_paths", "seed"}
        assert abs(est["value"] - diag["call"]) <= 4.0 * est["std_error"]

    def test_report_is_the_library_record(self, tmp_path):
        assert main(["asian", "--s0", "95", "--strike", "100", "--rate", "0.1",
                     "--sigma", "0.4", "--maturity", "1", "--fixings", "25",
                     "--mc-check", "2000", "--out", str(tmp_path)]) == 0
        diag = json.load(open(tmp_path / "asian_report.json"))
        del diag["spec"], diag["mc_check"]
        spec = pricing.AsianSpec(s0=95.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                                 maturity=1.0, n_fixings=25)
        assert diag == pricing.asian_prices(spec)
        rows = read_csv(str(tmp_path / "asian.csv"))
        assert rows[0] == ["n", "s0", "price", "put_price"]
        assert [float(v) for v in rows[1]] == [25, 95, diag["call"], diag["put"]]


class TestAnnuityCommand:
    def test_table_row(self, tmp_path):
        out = str(tmp_path)
        code = main(["annuity", "--beta", "0.1", "--rho", "0", "--p", "0.01",
                     "--q-list", "0,0.5", "--out", out])
        assert code == 0
        rows = read_csv(os.path.join(out, "annuity.csv"))
        assert rows[0] == ["beta", "rho", "p", "mean", "q", "threshold",
                           "shortfall", "shortfall_continuous"]
        assert float(rows[1][6]) == pytest.approx(0.10625, abs=2e-3)
        assert float(rows[2][6]) == pytest.approx(0.06853, abs=2e-3)
        record = json.load(open(os.path.join(out, "annuity_report.json")))
        assert set(record) == {"exponent", "constant", "shortfall", "var_threshold",
                               "method_flags", "report", "mean"}
        assert record["var_threshold"] > 0.0
        assert record["method_flags"]["var"] in ("tail_inversion", "grid_inversion")

    def test_unconverged_continuous_shortfall_exit_3(self, tmp_path, capsys, monkeypatch):
        # a continuous shortfall whose quadrature did not converge stops the run:
        # no row is written
        def unconverged(z, *args):
            raise ConvergenceError(f"P(Y > {z:.6g}) did not converge")

        monkeypatch.setattr(tails, "yor_survival", unconverged)
        assert main(["annuity", "--beta", "0.001", "--rho", "-0.1", "--p", "0.5",
                     "--q-list", "0", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: P(Y > 1.65243) did not converge"
        assert not (tmp_path / "annuity.csv").exists()

    def test_certain_stopping_has_no_power_tail_exit_2(self, tmp_path):
        # p = 1 is the one-period log-normal law: no tail exponent or constant
        assert main(["annuity", "--beta", "0.5", "--rho", "0.1", "--p", "1.0",
                     "--q-list", "0", "--out", str(tmp_path)]) == 2


class TestCalibrateCommand:
    @pytest.mark.parametrize("method,expected", [("life-expectancy", 0.06443),
                                                 ("hazard-rate", 0.02132)])
    def test_values(self, tmp_path, method, expected):
        out = str(tmp_path)
        assert main(["calibrate", "--age", "65", "--method", method, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "calibrate.csv"))
        assert float(rows[1][2]) == pytest.approx(expected, abs=5e-5)


class TestMomentsCommand:
    def test_values_and_existence(self, tmp_path):
        out = str(tmp_path)
        assert main(["moments", "--beta", "1", "--rho", "-0.1", "--kmax", "3",
                     "--out", out]) == 0
        rows = read_csv(os.path.join(out, "moments.csv"))
        assert float(rows[1][2]) == pytest.approx(9.508331945, rel=1e-8, abs=0.0)
        assert rows[2][1] == rows[3][1] == "False"


class TestExtremeLaws:
    """Valid laws at the edge of the float range exit 0, with no warning."""

    def test_moment_past_the_largest_float_does_not_exist(self, tmp_path, capsys):
        # E[A^39] = e^737.1 overflowed math.exp, and the command exited 1
        assert main(["moments", "--beta", "1", "--rho", "-0.1", "--kmax", "39",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "moments.csv")
        assert [row[1] for row in rows[1:]] == ["True"] + ["False"] * 38

    def test_one_fixing_at_extreme_volatility(self, tmp_path, capsys):
        # beta = 1600: the one-term law builds no operator, whose prefactor would overflow
        assert main(["asian", "--s0", "100", "--strike", "100", "--rate", "0.1", "--sigma", "40",
                     "--maturity", "1", "--fixings", "1", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.load(open(tmp_path / "asian_report.json"))
        # Black-Scholes: the call is the spot to 17 digits, the put K e^-rT - S0 + C
        assert report["call"] == pytest.approx(100.0, rel=1e-13, abs=0.0)
        assert report["put"] == pytest.approx(100.0 * math.exp(-0.1), rel=1e-13, abs=0.0)


class TestMcCommand:
    def test_reproducible_across_runs(self, tmp_path):
        args = ["mc", "--paths", "50000", "--seed", "42", "--horizon",
                "geometric:0.1", "--beta", "1", "--rho", "0",
                "--statistic", "survival:10"]
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", a_dir]) == 0
        assert main(args + ["--out", b_dir]) == 0
        a = json.load(open(os.path.join(a_dir, "mc_report.json")))
        b = json.load(open(os.path.join(b_dir, "mc_report.json")))
        assert a["value"] == b["value"]
        assert a["value"] == pytest.approx(0.10852, abs=0.01)

    def test_infinite_estimate_writes_no_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(TestMalformedInput.MC_OVERFLOW + ["--out", str(out)]) == 2
        assert not (out / "mc_report.json").exists()


class TestBatchCommand:
    def test_table_layouts(self, tmp_path):
        config = tmp_path / "scenarios.json"
        config.write_text(json.dumps([
            {"type": "asian", "s0": 95, "strike": 100, "rate": 0.1, "sigma": 0.4,
             "maturity": 1.0, "fixings": 10},
            {"type": "annuity", "beta": 1.0, "rho": 0.0, "p": 0.1,
             "q_list": [0, 0.5]},
            {"type": "asian", "s0": 105, "strike": 100, "rate": 0.1, "sigma": 0.4,
             "maturity": 1.0, "fixings": 10},
        ]))
        out = str(tmp_path / "out")
        assert main(["batch", "--config", str(config), "--out", out]) == 0
        asian = read_csv(os.path.join(out, "asian.csv"))
        assert asian[0] == ["n", "s0", "price", "put_price"]
        assert [r[1] for r in asian[1:]] == ["95", "105"]  # input order kept
        annuity = read_csv(os.path.join(out, "annuity.csv"))
        assert len(annuity) == 3
        envelope = json.load(open(os.path.join(out, "batch_report.json")))
        assert [s["type"] for s in envelope["scenarios"]] == ["asian", "annuity",
                                                              "asian"]
        records = [s for s in envelope["scenarios"] if s["type"] == "asian"]
        assert [[float(r[2]), float(r[3])] for r in asian[1:]] == [
            [s["call"], s["put"]] for s in records]

    def test_shared_solve_keeps_scenario_rows(self, tmp_path):
        # both scenarios reuse one solve; each keeps its own q and VaR level
        law = {"type": "annuity", "beta": 0.1, "rho": 0.0, "p": 0.1}
        config = tmp_path / "scenarios.json"
        config.write_text(json.dumps([
            {**law, "q_list": [0]},
            {**law, "q_list": [0.5], "var_level": 0.05},
        ]))
        out = str(tmp_path / "out")
        assert main(["batch", "--config", str(config), "--out", out]) == 0
        annuity = read_csv(os.path.join(out, "annuity.csv"))
        assert [float(r[4]) for r in annuity[1:]] == [0.0, 0.5]
        # discrete shortfalls of the source study at (0.1, 0, 0.1)
        assert float(annuity[1][6]) == pytest.approx(0.26821, abs=2e-3)
        assert float(annuity[2][6]) == pytest.approx(0.15846, abs=2e-3)
        first, second = json.load(open(os.path.join(out, "batch_report.json")))["scenarios"]
        assert first["shortfall"] == pytest.approx(float(annuity[1][6]), rel=1e-9, abs=0.0)
        assert second["shortfall"] == pytest.approx(float(annuity[2][6]), rel=1e-9, abs=0.0)
        assert first["var_threshold"] > second["var_threshold"]

    def test_manifest_records_warnings(self, tmp_path):
        config = tmp_path / "scenarios.json"
        config.write_text(json.dumps([{"type": "annuity", "beta": 0.1, "rho": 0.0,
                                       "p": 0.1, "var_level": 0.05}]))
        out = str(tmp_path / "out")
        assert main(["batch", "--config", str(config), "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "batch.manifest.json")))
        assert manifest["warnings"]
        assert all(set(w) == {"category", "message"} for w in manifest["warnings"])
        assert any(w["message"].startswith("VaR threshold")
                   and "falls inside the grid body" in w["message"]
                   for w in manifest["warnings"])

    def test_entries_are_the_command_records(self, tmp_path):
        asian = ["--s0", "100", "--strike", "100", "--rate", "0.1", "--sigma", "0.4",
                 "--maturity", "1", "--fixings", "10"]
        config = tmp_path / "scenarios.json"
        config.write_text(json.dumps([
            {"type": "asian", "s0": 100, "strike": 100, "rate": 0.1, "sigma": 0.4,
             "maturity": 1.0, "fixings": 10},
            {"type": "annuity", "beta": 1.0, "rho": 0.0, "p": 0.1, "q_list": [0, 0.5]},
        ]))
        assert main(["batch", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        assert main(["asian", *asian, "--out", str(tmp_path / "as")]) == 0
        assert main(["annuity", "--beta", "1", "--rho", "0", "--p", "0.1", "--q-list", "0,0.5",
                     "--out", str(tmp_path / "an")]) == 0
        entries = json.load(open(tmp_path / "b" / "batch_report.json"))["scenarios"]
        asian_record = json.load(open(tmp_path / "as" / "asian_report.json"))
        del asian_record["spec"]  # only the command line has the spec and an MC check
        assert entries[0] == {"index": 0, "type": "asian", **asian_record}
        spec = pricing.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                                 maturity=1.0, n_fixings=10)
        assert asian_record == pricing.asian_prices(spec)
        annuity_record = json.load(open(tmp_path / "an" / "annuity_report.json"))
        assert entries[1] == {"index": 1, "type": "annuity", **annuity_record}

    def test_unknown_type_exit_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps([{"type": "swap"}]))
        assert main(["batch", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2


class TestMalformedInput:
    MC = ["mc", "--paths", "1000", "--seed", "1", "--beta", "1", "--rho", "0"]
    # x**400 overflows to inf on every path
    MC_OVERFLOW = ["mc", "--paths", "2000", "--seed", "1", "--horizon", "fixed:10",
                   "--beta", "0.1", "--rho", "0", "--statistic", "moment:400"]
    ASIAN = {"type": "asian", "s0": 100, "rate": 0.1, "sigma": 0.4,
             "maturity": 1.0, "fixings": 10}
    ANNUITY = ["annuity", "--beta", "0.1", "--rho", "0", "--p", "0.01"]
    LAW = {"type": "annuity", "beta": 0.1, "rho": 0.0, "p": 0.01}
    # annuity inputs that must fail before the law is solved
    ANNUITY_INPUTS = [
        pytest.param(ANNUITY + ["--q-list", ","], {},
                     "--q-list must be a non-empty list of buffers q, got []",
                     id="annuity-empty-q-list"),
        pytest.param(ANNUITY + ["--q-list", "0,-1"], {},
                     "--q-list entry must be >= 0, got -1.0", id="annuity-negative-q"),
        pytest.param(ANNUITY + ["--var-level", "1.5"], {},
                     "VaR level must be in (0, 1), got 1.5", id="annuity-var-level"),
        pytest.param(["batch", "--config", "{dir}/b.json"],
                     {"b.json": json.dumps([{**LAW, "q_list": []}])},
                     "annuity scenario 0 q_list must be a non-empty list of buffers q, got []",
                     id="batch-empty-q-list"),
        pytest.param(["batch", "--config", "{dir}/b.json"],
                     {"b.json": json.dumps([{**LAW, "q_list": 0.5}])},
                     "annuity scenario 0 q_list must be a non-empty list of buffers q, got 0.5",
                     id="batch-scalar-q-list"),
        pytest.param(["annuity", "--beta", "0.5", "--rho", "0.1", "--p", "1"], {},
                     "p = 1 has a log-normal law with no power tail", id="annuity-p-1"),
        pytest.param(["batch", "--config", "{dir}/b.json"],
                     {"b.json": json.dumps([{**LAW, "p": 1.0}])},
                     "p = 1 has a log-normal law with no power tail", id="batch-p-1"),
    ]

    @pytest.mark.parametrize("argv,files,message", [
        pytest.param(MC + ["--horizon", "fixed:abc"], {},
                     "fixed horizon N must be an integer, got 'abc'", id="fixed-horizon"),
        pytest.param(MC + ["--horizon", "geometric:half"], {},
                     "geometric horizon P must be a number, got 'half'", id="geometric-horizon"),
        pytest.param(MC + ["--horizon", "general:{dir}/missing.json"], {},
                     "cannot read horizon file", id="horizon-file-missing"),
        pytest.param(MC + ["--horizon", "general:{dir}/w.json"], {"w.json": "[0.5,"},
                     "cannot read horizon file", id="horizon-file-not-json"),
        pytest.param(MC + ["--horizon", "general:{dir}/w.json"], {"w.json": '{"p": 1}'},
                     "must hold a JSON array of weights", id="horizon-file-not-array"),
        pytest.param(MC + ["--horizon", "general:{dir}/w.json"], {"w.json": '[0.5, "x"]'},
                     "must be a number, got 'x'", id="horizon-weight"),
        pytest.param(MC + ["--horizon", "fixed:5", "--statistic", "moment:two"], {},
                     "moment order K must be an integer, got 'two'", id="moment-order"),
        pytest.param(MC + ["--horizon", "fixed:5", "--statistic", "survival:far"], {},
                     "survival level X must be a number, got 'far'", id="survival-level"),
        pytest.param(["annuity", "--beta", "1", "--rho", "0", "--p", "0.1", "--q-list", "0,x"],
                     {}, "--q-list entry must be a number, got 'x'", id="q-list"),
        pytest.param(["batch", "--config", "{dir}/b.json"], {"b.json": json.dumps([ASIAN])},
                     "asian scenario 0 has no field 'strike'", id="batch-missing-field"),
        pytest.param(["batch", "--config", "{dir}/b.json"],
                     {"b.json": json.dumps([{"type": "annuity", "beta": 1.0, "rho": 0.0,
                                             "p": 0.1, "q_list": ["x"]}])},
                     "annuity scenario 0 q_list entry must be a number, got 'x'",
                     id="batch-q-list"),
        pytest.param(["batch", "--config", "{dir}/b.json"],
                     {"b.json": json.dumps([{**ASIAN, "strike": 100, "fixings": 10.5}])},
                     "asian scenario 0 field 'fixings' must be an integer, got 10.5",
                     id="batch-fractional-fixings"),
        pytest.param(["batch", "--config", "{dir}/b.json"],
                     {"b.json": json.dumps([{**ASIAN, "strike": "ATM"}])},
                     "asian scenario 0 field 'strike' must be a number, got 'ATM'",
                     id="batch-text-strike"),
        pytest.param(["batch", "--config", "{dir}/missing.json"], {},
                     "cannot read batch config", id="batch-config-missing"),
        pytest.param(["asian", "--s0", "nan", "--strike", "100", "--rate", "0.1",
                      "--sigma", "0.4", "--maturity", "1", "--fixings", "10"], {},
                     "s0 must be finite, got nan", id="asian-nan-spot"),
        pytest.param(["density", "--beta", "1", "--rho", "nan", "--p", "0.1"], {},
                     "rho must be finite, got nan", id="density-nan-rho"),
        pytest.param(["annuity", "--beta", "1", "--rho", "0", "--p", "0.1",
                      "--q-list", "nan"], {}, "--q-list entry must be finite, got 'nan'",
                     id="annuity-nan-q"),
        pytest.param(MC + ["--horizon", "fixed:5", "--statistic", "survival:nan"], {},
                     "survival level X must be finite, got 'nan'", id="survival-nan-level"),
        pytest.param(["density", "--beta", "1", "--rho", "-0.1", "--max-iter", "0"], {},
                     "max_iter must be an integer >= 1, got 0", id="density-max-iter-0"),
        pytest.param(["density", "--beta", "1", "--rho", "-0.1", "--tol", "0"], {},
                     "tol must be positive, got 0.0", id="density-tol-0"),
        pytest.param(["density", "--beta", "1", "--rho", "-0.1", "--tol", "inf"], {},
                     "tol must be finite, got inf", id="density-tol-inf"),
        pytest.param(["annuity", "--beta", "1", "--rho", "0", "--p", "0.1", "--tol", "inf"], {},
                     "tol must be finite, got inf", id="annuity-tol-inf"),
        pytest.param(["annuity", "--beta", "1", "--rho", "0", "--p", "0"], {},
                     "the capital K = E[X] is infinite", id="annuity-infinite-mean-p0"),
        pytest.param(["annuity", "--beta", "1", "--rho", "0.2", "--p", "0.1"], {},
                     "the capital K = E[X] is infinite", id="annuity-infinite-mean"),
        pytest.param(["batch", "--config", "{dir}/b.json"],
                     {"b.json": json.dumps([{"type": "annuity", "beta": 1.0, "rho": 0.2,
                                             "p": 0.1}])},
                     "the capital K = E[X] is infinite", id="batch-infinite-mean"),
        pytest.param(["density", "--beta", "1", "--rho", "-0.1", "--umax", "nan"], {},
                     "u_max must be finite, got nan", id="density-nan-umax"),
        pytest.param(["density", "--beta", "1", "--rho", "-0.1", "--umax", "-5"], {},
                     "u_max must be positive, got -5.0", id="density-negative-umax"),
        pytest.param(["density", "--beta", "1", "--rho", "-0.1", "--h", "inf"], {},
                     "h must be finite, got inf", id="density-inf-h"),
        pytest.param(["density", "--beta", "1", "--rho", "-0.1", "--h", "0"], {},
                     "h must be positive, got 0.0", id="density-zero-h"),
        pytest.param(["density", "--beta", "1", "--rho", "-800"], {},
                     "the kernel prefactor e^(beta - rho) = e^801 overflows a float",
                     id="density-overflowing-prefactor"),
        pytest.param(["annuity", "--beta", "720", "--rho", "0", "--p", "0.5"], {},
                     "the kernel prefactor e^(beta - rho) = e^720 overflows a float",
                     id="annuity-overflowing-prefactor"),
        pytest.param(["asian", "--s0", "100", "--strike", "100", "--rate", "800", "--sigma", "0.4",
                      "--maturity", "1", "--fixings", "10"], {},
                     "the mean of the 10-term sum", id="asian-overflowing-mean"),
        pytest.param(["asian", "--s0", "100", "--strike", "100", "--rate", "-800", "--sigma",
                      "0.4", "--maturity", "1", "--fixings", "10"], {},
                     "the discount factor e^(-rT) = e^800 overflows a float",
                     id="asian-overflowing-discount"),
        pytest.param(["moments", "--beta", "1", "--rho", "-0.1", "--kmax", "0"], {},
                     "kmax must be >= 1, got 0", id="moments-kmax-0"),
        pytest.param(["calibrate", "--age", "110", "--method", "life-expectancy"], {},
                     "leaves no p in (0, 1)", id="calibrate-no-root"),
        pytest.param(MC_OVERFLOW, {}, "statistic column 0 is not finite", id="mc-infinite"),
        pytest.param(["mc", "--paths", "2000", "--seed", "-1", "--horizon", "fixed:5",
                      "--beta", "0.1", "--rho", "0"], {},
                     "seed must be an integer >= 0, got -1", id="mc-negative-seed"),
        *ANNUITY_INPUTS,
    ])
    def test_exit_2_names_the_value(self, tmp_path, capsys, argv, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [a.format(dir=tmp_path) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("argv,files,message", ANNUITY_INPUTS)
    def test_annuity_input_fails_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                  argv, files, message):
        monkeypatch.setattr(solver, "_solve", lambda *a: pytest.fail("solved before the check"))
        self.test_exit_2_names_the_value(tmp_path, capsys, argv, files, message)

    def test_exit_2_prints_the_warnings_caught(self, tmp_path, capsys):
        # numpy's overflow warning is what made the estimate non-finite
        assert main(self.MC_OVERFLOW + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: overflow encountered in power"
        assert err[-1].startswith("error: statistic column 0 is not finite")

    def test_overflowing_tail_constant_exit_2(self, tmp_path, capsys):
        # at mu = 274 the tail constant's payoff overflows on the grid: one named
        # error, where numpy's overflow warnings and a NaN constant were
        assert main(["annuity", "--beta", "0.00145", "--rho", "-0.198", "--p", "0.00278",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: payoff times density is not finite at the grid node x = 12.3298"]
        assert not (tmp_path / "annuity_report.json").exists()

    def test_non_finite_report_exit_2(self, tmp_path, capsys, monkeypatch):
        # no law gives a VaR threshold of inf: TailAsymptote refuses a constant that is
        # not finite and its level names an overflow, so one is patched in past them
        monkeypatch.setattr(tails, "value_at_risk",
                            lambda ta, level, density=None: tails.VarEstimate(math.inf,
                                                                              "tail_inversion"))
        out = tmp_path / "out"
        assert main(["annuity", "--beta", "0.1", "--rho", "0", "--p", "0.1",
                     "--q-list", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"error: {out / 'annuity_report.json'} would hold a non-finite value"
        assert not (out / "annuity_report.json").exists()
        assert not (out / "annuity.manifest.json").exists()

    def test_non_finite_csv_cell_is_refused(self, tmp_path):
        with pytest.raises(ParameterError, match="t.csv would hold a non-finite value"):
            _Outputs(str(tmp_path), "").write_csv("t.csv", ["a"], [[1.0], [math.nan]])
        assert not (tmp_path / "t.csv").exists()


class TestEnvironmentDefaults:
    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GBMSUM_OUT", str(tmp_path))
        assert main(["calibrate", "--age", "65", "--method", "hazard-rate"]) == 0
        assert os.path.exists(os.path.join(str(tmp_path), "calibrate.csv"))


class TestStrictMode:
    def test_accuracy_warning_escalates(self, tmp_path):
        # tail exponent 0.2 wants a grid far beyond the span cap
        args = ["density", "--beta", "1", "--rho", "0.4", "--tol", "1e-7",
                "--max-iter", "800"]
        assert main(args + ["--out", str(tmp_path / "a"), "--strict"]) == 4
        assert main(args + ["--out", str(tmp_path / "b")]) == 0

    def test_strike_beyond_grid_escalates(self, tmp_path):
        # n K / S0 = 2000 lies beyond the law's grid top: the call prices ~1e-61 and warns
        args = ["asian", "--s0", "100", "--strike", "20000", "--rate", "0.1",
                "--sigma", "0.4", "--maturity", "1", "--fixings", "10"]
        assert main(args + ["--out", str(tmp_path / "a"), "--strict"]) == 4
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert 0.0 <= float(read_csv(str(tmp_path / "b" / "asian.csv"))[1][2]) < 1e-50


class TestAsianWarnings:
    def test_manifest_lists_each_warning_once(self, tmp_path):
        # the spec is priced once: parity gaps reuse the same prices
        out = str(tmp_path)
        assert main(["asian", "--s0", "100", "--strike", "20000", "--rate", "0.1",
                     "--sigma", "0.4", "--maturity", "1", "--fixings", "10",
                     "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "asian.manifest.json")))
        messages = [w["message"] for w in manifest["warnings"]]
        assert messages
        assert len(messages) == len(set(messages))
