"""CLI contract: subcommand outputs, exit codes, determinism, and formats."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ergraphon import above_line_coefficient, bernoulli_entropy
from ergraphon.cli import main
from ergraphon.ensembles import _NEWTON_TOL
from ergraphon.perturb import _ER_TOL, _RESIDUAL_TOL

RUN = lambda *argv: main(list(argv))


def run_capture(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEntropyCommand:
    def test_value_row(self, capsys):
        code, out, _ = run_capture(capsys, "entropy", "--u", "0.5")
        assert code == 0
        assert "-0.34657359027997264" in out
        assert out.startswith("quantity,arg,value")
        assert out.rstrip().splitlines()[-1].startswith("# version=")

    def test_derivative(self, capsys):
        code, out, _ = run_capture(capsys, "entropy", "--u", "0.3", "--k", "2")
        assert code == 0
        assert f"{1/0.42:.17g}" in out

    def test_quotient_min(self, capsys):
        code, out, _ = run_capture(capsys, "entropy", "--fmin", "--t1", "0.7")
        assert code == 0
        lines = out.splitlines()
        assert any("quotient_min_x" in ln for ln in lines)
        assert any("quotient_min_value" in ln for ln in lines)

    def test_quotient_value(self, capsys):
        code, out, _ = run_capture(capsys, "entropy", "--t1", "0.7", "--x", "-0.35")
        assert code == 0
        row = next(ln for ln in out.splitlines() if ln.startswith("quotient,"))
        assert float(row.split(",")[2]) == pytest.approx(0.51994382831156454, rel=1e-13)

    def test_quotient_min_rejected_below_half(self, capsys):
        code, _, _ = run_capture(capsys, "entropy", "--fmin", "--t1", "0.4")
        assert code == 2

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_capture(capsys, "entropy", "--u", "1.5")
        assert code == 2
        assert "error" in err

    def test_nothing_requested_exit_2(self, capsys):
        code, _, _ = run_capture(capsys, "entropy")
        assert code == 2


class TestCurveCommand:
    def test_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_capture(
            capsys, "curve", "--t1", "0.6", "--eps", "1e-5,1e-4", "--side", "below",
            "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "t1,eps,side,pred,numeric,rel_err,exponent"
        assert lines[-1].startswith("# version=")
        assert len(lines) == 4  # header + 2 rows + meta

    def test_json_mirrors_csv_fields(self, tmp_path, capsys):
        out_csv = tmp_path / "c.csv"
        out_json = tmp_path / "c.json"
        for path, fmt in ((out_csv, "csv"), (out_json, "json")):
            code, _, _ = run_capture(
                capsys, "curve", "--t1", "0.6", "--eps", "1e-5,1e-4",
                "--side", "below", "--format", fmt, "--out", str(path),
            )
            assert code == 0
        records = json.loads(out_json.read_text())
        header = out_csv.read_text().splitlines()[0].split(",")
        assert [set(r) == set(header) for r in records]
        first_csv = out_csv.read_text().splitlines()[1].split(",")
        assert float(first_csv[1]) == records[0]["eps"]
        assert float(first_csv[4]) == pytest.approx(records[0]["numeric"], rel=1e-16)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_capture(
                capsys, "curve", "--t1", "0.7", "--eps", "1e-5,1e-4",
                "--side", "both", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_small_eps_rows_are_solved(self, capsys):
        # t1^3 eps <= 2.7e-8: at or below the solver's default ER tolerance
        code, out, _ = run_capture(capsys, "curve", "--t1", "0.3",
                                   "--eps", "1e-9,1e-8,1e-7", "--side", "below")
        assert code == 0
        lines = out.splitlines()
        header, rows = lines[0].split(","), lines[1:-1]
        assert len(rows) == 3
        for line in rows:
            rec = dict(zip(header, line.split(",")))
            assert float(rec["numeric"]) != 0.0
            assert math.isfinite(float(rec["exponent"]))
        assert lines[-1].endswith(f" tolerances=residual={_RESIDUAL_TOL:g}")

    def test_eps_below_resolution_exit_2(self, capsys):
        code, out, err = run_capture(capsys, "curve", "--t1", "0.3", "--eps", "1e-17",
                                     "--side", "below")
        assert code == 2
        assert out == ""
        assert "resolution" in err

    def test_eps_above_resolution_exit_2(self, capsys):
        code, out, err = run_capture(capsys, "curve", "--t1", "0.7", "--eps", "1e-17,1e-16",
                                     "--side", "above")
        assert code == 2
        assert out == ""
        assert "resolution" in err

    def test_repeated_eps_exit_2(self, capsys):
        code, out, err = run_capture(capsys, "curve", "--t1", "0.6", "--eps", "1e-4,1e-4",
                                     "--side", "below")
        assert code == 2
        assert out == ""
        assert "distinct" in err

    def test_above_at_half_exit_2(self, capsys):
        code, _, _ = run_capture(capsys, "curve", "--t1", "0.5", "--side", "above")
        assert code == 2

    def test_eps_range_validated(self, capsys):
        code, _, _ = run_capture(capsys, "curve", "--t1", "0.6", "--eps", "0.5")
        assert code == 2

    def test_io_error_exit_3(self, capsys):
        code, _, _ = run_capture(
            capsys, "curve", "--t1", "0.6", "--eps", "1e-4",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 3

    def test_missing_config_exit_7(self, tmp_path, capsys):
        code, out, err = run_capture(capsys, "curve", "--config", str(tmp_path / "missing.json"))
        assert code == 7
        assert out == ""
        assert "missing.json" in err
        assert "Traceback" not in err

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"t1": [0.6], "side": "\x80"}')
        code, out, err = run_capture(capsys, "curve", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_config_file_batch(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t1": [0.6], "eps": [1e-4], "side": "below"}))
        out = tmp_path / "o.csv"
        code, _, _ = run_capture(capsys, "curve", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert out.read_text().count("\n") == 3

    @pytest.mark.parametrize("cfg", [
        {"t1": [0.6], "eps": [1e-4, 1e-3], "sied": "above"},   # misspelt key
        {"t1": {"0.6": 1}, "eps": [1e-4, 1e-3]},               # object, not array
        {"t1": "0.6", "eps": [1e-4]},                          # string, not array
        {"t1": [0.6], "eps": "1e-4"},
        {"t1": [0.6], "eps": [1e-4, "1e-3"]},                  # string entry
        {"t1": [0.6], "eps": [True]},
        {"t1": [10 ** 400], "eps": [1e-4]},                    # beyond float range
    ])
    def test_config_keys_and_types_are_strict(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_capture(capsys, "curve", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_config_trailer_hashes_the_values_not_the_path(self, tmp_path, capsys):
        def trailer(path, cfg):
            path.write_text(json.dumps(cfg))
            code, out, _ = run_capture(capsys, "curve", "--config", str(path))
            assert code == 0
            return out.splitlines()[-1]

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = {"t1": [0.6], "eps": [1e-4], "side": "below"}
        first = trailer(a, base)
        assert trailer(b, base) == first
        assert trailer(a, {**base, "eps": [1e-3]}) != first
        assert trailer(a, {"t1": [0.6], "eps": [1e-4]}) == first  # side defaults to below

    def test_trailer_without_config_keeps_its_bytes(self, capsys):
        code, out, _ = run_capture(capsys, "curve", "--t1", "0.6", "--eps", "1e-4")
        assert code == 0
        assert out.splitlines()[-1] == (
            "# version=0.1.0 config=465209523dc637d5 tolerances=residual=1e-10")

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t1": [0.6], ')
        code, out, err = run_capture(capsys, "curve", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err


class TestSolveCommand:
    def test_reduced_solve_text(self, capsys):
        t2 = 0.3**3 * (1 - 1e-3)
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", f"{t2:.17g}")
        assert code == 0
        assert "case = I" in out
        lam = float(next(ln.split("=")[1] for ln in out.splitlines() if ln.startswith("lam")))
        assert lam == pytest.approx(0.5, abs=1e-6)

    def test_er_point_zero_perturbation(self, capsys):
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", "0.027")
        assert code == 0
        g11 = float(next(ln.split("=")[1] for ln in out.splitlines() if ln.startswith("g11")))
        assert g11 == 0.0

    def test_infeasible_exit_4(self, capsys):
        code, _, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", "0.9")
        assert code == 4

    @pytest.mark.parametrize("t2", ["nan", "inf"])
    def test_nonfinite_target_exit_2(self, capsys, t2):
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", t2)
        assert code == 2
        assert out == ""

    def test_nan_er_tol_exit_2(self, capsys):
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", "0.02",
                                   "--er-tol", "nan")
        assert code == 2
        assert out == ""

    def test_negative_er_tol_exit_2(self, capsys):
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", "0.02",
                                   "--er-tol=-1e-9")
        assert code == 2
        assert out == ""

    def test_csv_and_json_rows(self, capsys):
        t2 = f"{0.3**3 * (1 - 1e-3):.17g}"
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", t2,
                                   "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["t1", "t2_target", "mode", "lam"]
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", t2,
                                   "--format", "json")
        assert code == 0
        (rec,) = json.loads(out)
        assert rec["case"] == "I"
        assert rec["lam"] == pytest.approx(0.5, abs=1e-6)

    def test_text_honours_out(self, tmp_path, capsys):
        path = tmp_path / "o.txt"
        argv = ("solve", "--t1", "0.3", "--t2", "0.026973")
        code, out, _ = run_capture(capsys, *argv, "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("t1 = 0.29999999999999999\n")
        code, out, _ = run_capture(capsys, *argv, "--out", str(tmp_path / "no" / "o.txt"))
        assert code == 3
        assert out == ""

    def test_exact_constraints_vanishing_block(self, capsys):
        # eps = 1e-8 above the line at t1 = 0.7: the optimal block has
        # measure eps/(1-2 t1)^2 = 6.25e-8, and the increment is the rate
        code, out, _ = run_capture(capsys, "solve", "--mode", "exact_constraints",
                                   "--t1", "0.7", "--t2", "0.343000021")
        assert code == 0
        row = dict(ln.split(" = ") for ln in out.splitlines())
        assert float(row["lam"]) == pytest.approx(6.25e-8, rel=1e-4)
        eps = (0.343000021 - 0.7**3) / (3 * 0.7)
        inc = float(row["entropy"]) - bernoulli_entropy(0.7)
        assert inc == pytest.approx(above_line_coefficient(0.7) * eps, rel=1e-6)

    def test_exact_constraints_missing_seed_exit_4(self, capsys):
        t2 = f"{0.96**3 * (1 - 1e-4):.17g}"
        code, out, err = run_capture(capsys, "solve", "--mode", "exact_constraints",
                                     "--t1", "0.96", "--t2", t2)
        assert code == 4
        assert out == ""
        assert "no reduced seed" in err

    def test_trailer_formats_the_solver_constants(self, capsys):
        code, out, _ = run_capture(capsys, "solve", "--t1", "0.3", "--t2", "0.02",
                                   "--format", "csv")
        assert code == 0
        tolerances = out.splitlines()[-1].split(" tolerances=")[1]
        assert tolerances == f"residual={_RESIDUAL_TOL:g} er_tol={_ER_TOL:g}"
        assert tolerances == "residual=1e-10 er_tol=1e-09"


class TestExactCommand:
    def test_omega_row(self, capsys):
        code, out, _ = run_capture(
            capsys, "exact", "--n", "4", "--edges", "3", "--triangles", "0"
        )
        assert code == 0
        assert out.splitlines()[1] == "4,3,0,16"

    def test_capacity_exit_5(self, capsys):
        code, _, _ = run_capture(
            capsys, "exact", "--n", "9", "--edges", "3", "--triangles", "0"
        )
        assert code == 5

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_exit_2(self, capsys, n):
        code, out, err = run_capture(
            capsys, "exact", "--n", n, "--edges", "3", "--triangles", "0"
        )
        assert code == 2
        assert out == ""
        assert "whole number n >= 1" in err

    def test_trailer_formats_the_newton_constant(self, capsys):
        code, out, _ = run_capture(
            capsys, "exact", "--n", "4", "--edges", "3", "--triangles", "0"
        )
        assert code == 0
        tolerances = out.splitlines()[-1].split(" tolerances=")[1]
        assert tolerances == f"newton={_NEWTON_TOL:g}"
        assert tolerances == "newton=1e-10"

    def test_full_ensemble_row(self, capsys):
        code, out, _ = run_capture(
            capsys, "exact", "--n", "5", "--edges", "5", "--triangles", "1", "--full"
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "s_n" in header and "psi_n" in header

    def test_nonconvergence_exit_6(self, capsys):
        # zero-triangle hard constraint sits on the mean-region boundary
        code, _, _ = run_capture(
            capsys, "exact", "--n", "4", "--edges", "3", "--triangles", "0", "--full"
        )
        assert code == 6


def _run_quiet(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_COUNT_ARG = st.one_of(st.integers(-3, 40), st.sampled_from([10 ** 20, 10 ** 400, -10 ** 400]))


class TestExactArguments:
    """``exact`` maps every (n, edges, triangles) to a documented exit code."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(-2, 10), st.just(10 ** 400)),
           edges=_COUNT_ARG, triangles=_COUNT_ARG, full=st.booleans())
    def test_documented_exit_and_repeatable_bytes(self, n, edges, triangles, full):
        argv = ["exact", "--n", str(n), "--edges", str(edges), "--triangles", str(triangles)]
        argv += ["--full"] if full else []
        code, out, err = first = _run_quiet(argv)
        assert _run_quiet(argv) == first
        assert "Traceback" not in err
        if n < 1:
            assert code == 2
        elif n > (7 if full else 8):
            assert code == 5
        elif full:
            assert code in (0, 2, 6)  # 2: no graph has the pair; 6: a class on the hull
        else:
            assert code == 0
        assert (code == 0) == (out != "") == (err == "")


class TestMcmcCommand:
    def test_row_and_determinism(self, capsys):
        argv = ("mcmc", "--n", "20", "--theta1", "0.5", "--theta2", "0",
                "--steps", "2e4", "--seed", "1")
        code, out1, _ = run_capture(capsys, *argv)
        assert code == 0
        code, out2, _ = run_capture(capsys, *argv)
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "theta1,theta2,n,steps,seed,mean_t1,se_t1,mean_t3,se_t3"

    def test_scientific_steps_accepted(self, capsys):
        code, out, _ = run_capture(
            capsys, "mcmc", "--n", "12", "--theta1", "0", "--theta2", "0",
            "--steps", "1e4", "--seed", "7",
        )
        assert code == 0
        assert ",10000," in out.splitlines()[1]

    def test_nan_theta_exit_2(self, capsys):
        code, out, _ = run_capture(
            capsys, "mcmc", "--n", "7", "--theta1", "nan", "--theta2", "0",
            "--steps", "100", "--seed", "1",
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("steps", ["abc", "inf"])
    def test_bad_steps_exit_2(self, capsys, steps):
        code, out, err = run_capture(
            capsys, "mcmc", "--n", "7", "--theta1", "0", "--theta2", "0",
            "--steps", steps, "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_n_above_capacity_exit_5(self, capsys):
        code, out, err = run_capture(
            capsys, "mcmc", "--n", "2001", "--theta1", "0", "--theta2", "0",
            "--steps", "100", "--seed", "1",
        )
        assert code == 5
        assert out == ""
        assert "n <= 2000" in err

    @pytest.mark.parametrize("steps, burnin", [
        ("100", "1000000000000"),
        ("1e12", None),
        ("100", "1" + "0" * 400),
        ("1e9", "1"),
    ])
    def test_proposals_above_ceiling_exit_5(self, capsys, steps, burnin):
        argv = ["mcmc", "--n", "7", "--theta1", "0", "--theta2", "0",
                "--steps", steps, "--seed", "1"]
        if burnin is not None:
            argv += ["--burnin", burnin]
        code, out, err = run_capture(capsys, *argv)
        assert code == 5
        assert out == ""
        assert "at most 1000000000 proposals" in err

    def test_negative_burnin_exit_2(self, capsys):
        code, out, _ = run_capture(
            capsys, "mcmc", "--n", "7", "--theta1", "0", "--theta2", "0",
            "--steps", "100", "--seed", "1", "--burnin", "-5",
        )
        assert code == 2
        assert out == ""


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ergraphon.cli", "entropy", "--u", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "-0.34657359027997264" in proc.stdout

    def test_import_leaves_scipy_unloaded(self):
        # the package does not use scipy, not even in exact_constraints solves
        code = ("import sys, ergraphon; "
                "ergraphon.solve_microcanonical(0.3, 0.3**3 + 0.9e-4, mode='exact_constraints'); "
                "ergraphon.solve_microcanonical(0.3, 0.3**3 * (1 - 1e-4), "
                "mode='exact_constraints'); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_dos_cells_unloaded(self):
        # the density-of-states table is imported on the first exact query
        code = "import sys, ergraphon; print('ergraphon._dos_cells' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
