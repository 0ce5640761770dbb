import argparse
import cmath
import contextlib
import dataclasses
import io
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import bandlim.cli
import bandlim.quadrature
import bandlim.transform
from bandlim.cli import build_parser, main
from bandlim.quadrature import LineIntegralParams
from bandlim.transform import (LegendreSeries, TransformConfig, coeff_bar, coeff_unbar,
                               series_from_json)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_series(tmp_path, name, kind, coeffs):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"kind": kind, "coeffs": [[c.real, c.imag] for c in map(complex,
                                                                coeffs)]}))
    return str(path)


class TestEval:
    def test_eval_jn_row(self, capsys):
        code, out, _ = run(capsys, "eval-jn", "--n", "0", "--z", "0",
                           "--out", "-")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,z,re,im"
        n, z, re, im = lines[1].split(",")
        assert (n, float(z), float(re), float(im)) == ("0", 0.0, 1.0, 0.0)

    def test_eval_jn_grid(self, capsys):
        code, out, _ = run(capsys, "eval-jn", "--n", "1", "--z-min", "0",
                           "--z-max", "2", "--z-steps", "3", "--out", "-")
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_eval_pn(self, capsys):
        code, out, _ = run(capsys, "eval-pn", "--n", "2", "--t", "0.5",
                           "--out", "-")
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[2]) == -0.125

    def test_full_precision(self, capsys):
        code, out, _ = run(capsys, "eval-jn", "--n", "1", "--z", "1",
                           "--out", "-")
        re = out.strip().split("\n")[1].split(",")[2]
        # repr round-trips the double exactly
        assert len(re.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_gauss_rule(self, capsys):
        code, out, _ = run(capsys, "gauss-rule", "--npoints", "2",
                           "--out", "-")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert float(rows[1][0]) == pytest.approx(1 / math.sqrt(3),
                                                  abs=1e-15)
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-15)

    def test_negative_value_with_an_exponent(self, capsys, tmp_path):
        # -1e-05 is how the CSV's repr prints a small negative t; argparse's
        # own negative-number pattern has no exponent, so it read such a
        # value as a flag and the option as missing its argument
        path = write_series(tmp_path, "h.json", "bessel", [2.0])
        for argv, var, value in ((["eval-pn", "--n", "2", "--t", "-1e-05"], 1, -1e-05),
                                 (["eval-jn", "--n", "2", "--z-min", "-2.5e1",
                                   "--z-steps", "2"], 1, -25.0),
                                 (["eval-pn", "--n", "2", "--t", "-.5E-3"], 1, -5e-4),
                                 (["inverse", "--in", path, "--t", "-5e-1"], 0, -0.5)):
            code, out, _ = run(capsys, *argv, "--out", "-")
            assert code == 0, argv
            assert float(out.splitlines()[1].split(",")[var]) == value, argv
        for argv in (["--t", "-x", "--out", "-"], ["--t", "--out", "-"]):
            code, _, err = run(capsys, "eval-pn", "--n", "2", *argv)
            assert code == 1 and "argument --t: expected one argument" in err, argv


class TestTransformCommands:
    def test_calibrate(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--out", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["paper_C"] == 4.0
        assert doc["C_star"] == pytest.approx(2 * math.pi, abs=1e-5)
        assert doc["ratio"] == pytest.approx(doc["C_star"] / 4.0, rel=1e-12)

    def test_forward_inverse(self, capsys, tmp_path):
        path = write_series(tmp_path, "g.json", "bessel", [2.0])
        code, out, _ = run(capsys, "forward", "--in", path, "--z", "1",
                           "--out", "-")
        assert code == 0
        re = float(out.strip().split("\n")[1].split(",")[1])
        assert re == pytest.approx(2 * math.sin(1.0), abs=1e-9)
        code, out, _ = run(capsys, "inverse", "--in", path, "--t", "0.25",
                           "--out", "-")
        assert code == 0
        re = float(out.strip().split("\n")[1].split(",")[1])
        assert re == pytest.approx(1.0, abs=1e-6)

    def test_forward_far_out(self, capsys, tmp_path):
        # forward of P_0 is 2 sin z / z, printed exactly at any z
        path = write_series(tmp_path, "p0.json", "legendre", [1.0])
        code, out, _ = run(capsys, "forward", "--in", path, "--z", "60", "--out", "-")
        assert code == 0
        assert out.splitlines()[1] == f"60.0,{2 * math.sin(60.0) / 60.0!r},0.0"

    def test_projections(self, capsys, tmp_path):
        path = write_series(tmp_path, "g.json", "bessel", [2.0])
        code, out, _ = run(capsys, "project-bessel", "--in", path,
                           "--nmax", "1", "--out", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "bessel"
        assert doc["coeffs"][0][0] == pytest.approx(2.0, abs=1e-6)
        code, out, _ = run(capsys, "project-legendre", "--in", path,
                           "--nmax", "1", "--out", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"][0][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("coeffs", [[2.0], [0.3 + 0.1j, -0.5 + 0.2j, 0.25 - 0.4j, 0.1]])
    def test_readme_project_bessel(self, capsys, tmp_path, coeffs):
        # README's `project-bessel --nmax 8`: a series recovers its own
        # coefficients, zeros past its degree
        path = write_series(tmp_path, "g.json", "bessel", coeffs)
        code, out, _ = run(capsys, "project-bessel", "--in", path, "--nmax", "8",
                           "--out", "-")
        assert code == 0
        got = [complex(re, im) for re, im in json.loads(out)["coeffs"]]
        want = coeffs + [0.0] * (9 - len(coeffs))
        assert got == want

    def test_roundtrip(self, capsys, tmp_path):
        path = write_series(tmp_path, "g.json", "bessel", [2.0])
        code, out, _ = run(capsys, "roundtrip", "--in", path, "--z", "1",
                           "--out", "-")
        assert code == 0
        re = float(out.strip().split("\n")[1].split(",")[1])
        assert re == pytest.approx(1.6829420, abs=1e-5)

    def test_solve_ode(self, capsys, tmp_path):
        hpath = write_series(tmp_path, "h.json", "bessel", [2.0])
        oppath = tmp_path / "op.json"
        oppath.write_text(json.dumps({"op": [[1.0, 0.0], [0.0, 0.0],
                                             [-1.0, 0.0]]}))
        code, out, _ = run(capsys, "solve-ode", "--op", str(oppath),
                           "--in", hpath, "--nmax", "16", "--z", "0",
                           "--out", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] < 1e-8
        assert doc["g"][0][1] == pytest.approx(math.pi / 2, abs=1e-9)


class TestProjectLegendre:
    """project-legendre of a series document gives its own coefficients,
    truncated or zero-padded to --nmax, and reads no compact rule."""

    def test_p40_to_nmax_31_is_zero(self, capsys, tmp_path):
        # on the 32-point rule, P_40 aliased onto cbar_24 = -0.778
        path = write_series(tmp_path, "p40.json", "legendre", [0.0] * 40 + [1.0])
        code, out, err = run(capsys, "project-legendre", "--in", path, "--nmax", "31",
                             "--out", "-")
        assert code == 0 and err == ""
        assert json.loads(out)["coeffs"] == [[0.0, 0.0]] * 32

    @pytest.mark.parametrize("nmax", [5, 40, 128])
    def test_cubic_is_exact_at_every_nmax(self, capsys, tmp_path, nmax):
        cbar = [0.5, -0.25j, 1.0 + 2.0j, -0.75]
        path = write_series(tmp_path, "f.json", "legendre", cbar)
        code, out, _ = run(capsys, "project-legendre", "--in", path,
                           "--nmax", str(nmax), "--out", "-")
        assert code == 0
        want = [[c.real, c.imag] for c in map(complex, cbar)] + [[0.0, 0.0]] * (nmax - 3)
        assert json.loads(out)["coeffs"] == want


class TestLegendreInput:
    """inverse, roundtrip, project-bessel and solve-ode read a Legendre
    document as its exact Bessel series c_n = 2 i^n cbar_n; forward and
    project-legendre read a Bessel document as its Legendre series."""

    @pytest.mark.parametrize("argv", [("inverse", "--t", "0.25"),
                                      ("roundtrip", "--z", "1"),
                                      ("project-bessel", "--nmax", "2"),
                                      ("forward", "--z", "1"),
                                      ("project-legendre", "--nmax", "2")])
    def test_matches_bessel_document(self, capsys, tmp_path, argv):
        leg = write_series(tmp_path, "f.json", "legendre", [1.0])
        bes = write_series(tmp_path, "g.json", "bessel", [2.0])
        code, want, _ = run(capsys, *argv, "--in", bes, "--out", "-")
        assert code == 0
        code, got, _ = run(capsys, *argv, "--in", leg, "--out", "-")
        assert code == 0
        assert got == want

    def test_solve_ode_reads_legendre_document(self, capsys, tmp_path):
        # h as a Legendre document maps exactly to its Bessel series
        cbar = [0.5 - 0.25j, 1.5j, -0.75 + 1.0j]
        leg = write_series(tmp_path, "f.json", "legendre", cbar)
        bes = write_series(tmp_path, "g.json", "bessel",
                           coeff_unbar(LegendreSeries(cbar)).coeffs)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"op": [[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
        argv = ("solve-ode", "--op", str(op), "--z-steps", "5", "--out", "-")
        code, want, _ = run(capsys, *argv, "--in", bes)
        assert code == 0
        code, got, err = run(capsys, *argv, "--in", leg)
        assert code == 0 and err == ""
        assert got == want

    def test_complex_degree_two(self, capsys, tmp_path):
        cbar = [0.5 - 0.25j, 1.5j, -0.75 + 1.0j]
        c = [2.0 * 1j ** n * cb for n, cb in enumerate(cbar)]
        leg = write_series(tmp_path, "f.json", "legendre", cbar)
        bes = write_series(tmp_path, "g.json", "bessel", c)
        argv = ("inverse", "--t-min", "-0.5", "--t-max", "0.5",
                "--t-steps", "3", "--out", "-")
        code, want, _ = run(capsys, *argv, "--in", bes)
        assert code == 0
        code, got, _ = run(capsys, *argv, "--in", leg)
        assert code == 0
        want_rows = [list(map(float, line.split(",")))
                     for line in want.strip().split("\n")[1:]]
        got_rows = [list(map(float, line.split(",")))
                    for line in got.strip().split("\n")[1:]]
        assert len(got_rows) == len(want_rows) == 3
        for g_row, w_row in zip(got_rows, want_rows):
            assert g_row[0] == w_row[0]
            assert abs(complex(*g_row[1:]) - complex(*w_row[1:])) <= 1e-12


class TestGates:
    def test_bauer_pass(self, capsys):
        code, out, _ = run(capsys, "bauer-check", "--z", "1", "--t", "1",
                           "--nmax", "40", "--out", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["partial_sum"][0] == pytest.approx(0.5403023, abs=1e-6)
        assert doc["partial_sum"][1] == pytest.approx(0.8414710, abs=1e-6)

    def test_bauer_fail(self, capsys):
        code, out, _ = run(capsys, "bauer-check", "--z", "9", "--t", "0.8",
                           "--nmax", "3", "--out", "-")
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_ortho_pass(self, capsys):
        code, out, _ = run(capsys, "ortho-check", "--nmax", "2", "--out", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["printed_diag_constant"] == 2.0
        assert doc["measured_diag_constant"] == pytest.approx(math.pi,
                                                              rel=1e-4)

    def test_ortho_fail_on_tight_tol(self, capsys):
        code, out, _ = run(capsys, "ortho-check", "--nmax", "2",
                           "--tol", "1e-15", "--out", "-")
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_ortho_nonconvergence_names_pairs(self, capsys):
        code, out, err = run(capsys, "ortho-check", "--nmax", "9", "--out", "-")
        assert code == 2 and out == ""
        assert "t=0.0" in err and "G[1, 9]" in err and "G[0, 0]" not in err

    def test_ortho_nonconvergence_names_pairs_at_a_tight_cap(self, capsys):
        # the twin of the nmax 9 case above: at 30 segments every entry
        # converges but G[1, 9] and G[3, 9], as at 400
        code, out, err = run(capsys, "ortho-check", "--nmax", "9",
                             "--max-segments", "30", "--out", "-")
        assert code == 2 and out == ""
        assert "t=0.0" in err and "within 30 segments" in err
        assert err.rstrip().endswith("for G[1, 9], G[3, 9]")


class TestPlumbing:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "nonsense")
        assert code == 1

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "eval-jn", "--n", "frog", "--z", "0")
        assert code == 1

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "eval-pn", "--n", "2", "--t", "3",
                           "--out", "-")
        assert code == 1
        assert err

    @pytest.mark.parametrize("argv", ["eval-pn --n 2 --t nan",
                                      "eval-pn --n 2 --t-min nan --t-steps 2",
                                      "bauer-check --z 1 --t nan"],
                             ids=["eval-pn", "eval-pn-grid", "bauer-check"])
    def test_nan_t_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--out", "-")
        assert (code, out) == (1, "")
        assert err == "bandlim: legendre_all: every t must lie in [-1, 1]\n"

    @pytest.mark.parametrize("argv", [
        "bauer-check --z 1 --t 1 --tol",
        "ortho-check --nmax 0 --tol",
        "ortho-check --nmax 0 --diag-rel-tol",
        "solve-ode --op {op} --in {h} --z 0 --residual-threshold",
    ], ids=lambda argv: argv.split()[0] + argv.split()[-1])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "-0.5"])
    def test_gate_threshold_refused(self, capsys, tmp_path, argv, value):
        h = write_series(tmp_path, "h.json", "bessel", [2.0])
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"op": [[1.0, 0.0]]}))
        code, out, err = run(capsys, *argv.format(op=op, h=h).split(), value,
                             "--out", "-")
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {argv.split()[-1]}: threshold "
                            f"must be finite and >= 0, got {value!r}\n")

    def test_gate_threshold_keeps_float_errors(self, capsys):
        code, out, err = run(capsys, "bauer-check", "--z", "1", "--t", "1",
                             "--tol", "frog", "--out", "-")
        assert (code, out) == (1, "")
        assert err.endswith("error: argument --tol: invalid float value: 'frog'\n")
        code, out, _ = run(capsys, "bauer-check", "--z", "1", "--t", "1",
                           "--tol", "0", "--out", "-")
        assert json.loads(out)["tol"] == 0.0

    @pytest.mark.parametrize("argv, message", [
        ("solve-ode --op {op} --in {h}", "z must be finite"),
        ("forward --in {h}", "z must be finite"),
        ("eval-jn --n 2", "spherical_j: argument must be finite"),
    ], ids=["solve-ode", "forward", "eval-jn"])
    def test_infinite_grid_end_prints_only_the_error(self, capsys, tmp_path,
                                                     argv, message):
        h = write_series(tmp_path, "h.json", "bessel", [2.0])
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"op": [[1.0, 0.0]]}))
        code, out, err = run(capsys, *argv.format(op=op, h=h).split(),
                             "--z-max", "inf", "--z-steps", "2", "--out", "-")
        assert (code, out, err) == (1, "", f"bandlim: {message}\n")

    def test_io_error_exit(self, capsys):
        code, _, _ = run(capsys, "eval-jn", "--n", "0", "--z", "0",
                         "--out", "/nonexistent-dir/x.csv")
        assert code == 3

    def test_determinism(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "ortho-check", "--nmax", "2",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_max_segments_flag(self, capsys, monkeypatch):
        # --max-segments reaches the engine: the LineIntegralParams that
        # ortho-check passes to orthogonality_matrix_j
        passed = []
        gram = bandlim.cli.orthogonality_matrix_j
        monkeypatch.setattr(bandlim.cli, "orthogonality_matrix_j",
                            lambda nmax, params: passed.append(params) or gram(nmax, params))
        code, _, _ = run(capsys, "ortho-check", "--nmax", "0", "--max-segments",
                         "123", "--out", "-")
        assert code == 0
        assert passed == [LineIntegralParams(max_segments=123)]

    def test_max_segments_below_minimum(self, capsys):
        code, _, err = run(capsys, "ortho-check", "--max-segments", "5",
                           "--out", "-")
        assert code == 1
        assert "max_segments" in err

    def test_t_grid_clamped(self, capsys):
        code, out, _ = run(capsys, "eval-pn", "--n", "1", "--t-min", "-1",
                           "--t-max", "1", "--t-steps", "3", "--out", "-")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert float(rows[0][1]) == -1.0 + 1e-9
        assert float(rows[-1][1]) == 1.0 - 1e-9

    @pytest.mark.parametrize("argv", ["eval-jn --n 1 --z-steps 0",
                                      "eval-pn --n 1 --t-steps 0"],
                             ids=lambda argv: argv.split()[0])
    def test_zero_grid_steps_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--out", "-")
        assert code == 1 and out == ""
        assert argv.split()[-2] in err

    def test_one_z_step_is_z_min(self, capsys):
        code, out, _ = run(capsys, "eval-jn", "--n", "0", "--z-min", "2",
                           "--z-max", "5", "--z-steps", "1", "--out", "-")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 1 and float(rows[0][1]) == 2.0

    def test_one_z_step_ignores_infinite_z_max(self, capsys):
        code, out, _ = run(capsys, "eval-jn", "--n", "2", "--z-steps", "1",
                           "--z-min", "0.3", "--z-max", "inf", "--out", "-")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 1 and float(rows[0][1]) == 0.3

    def test_one_t_step_is_clamped_t_min(self, capsys):
        code, out, _ = run(capsys, "eval-pn", "--n", "1", "--t-steps", "1",
                           "--out", "-")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 1 and rows[0][1] == "-0.999999999"

    def test_series_from_stdin(self, capsys, tmp_path, monkeypatch):
        path = write_series(tmp_path, "g.json", "bessel", [2.0, 0.5j])
        argv = ("inverse", "--t-min", "-0.5", "--t-max", "0.5", "--t-steps",
                "3", "--out", "-")
        code, want, _ = run(capsys, *argv, "--in", path)
        assert code == 0
        with open(path) as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        code, got, _ = run(capsys, *argv, "--in", "-")
        assert code == 0 and got == want

    @pytest.mark.parametrize("kind", ["bessel", "legendre"])
    @pytest.mark.parametrize("argv", [("inverse", "--t", "0.3"),
                                      ("forward", "--z", "1"),
                                      ("project-bessel", "--nmax", "2")])
    def test_series_above_max_order_refused(self, capsys, tmp_path, kind, argv):
        # 130 coefficients: order 129, one past the supported 128
        doc = write_series(tmp_path, "long.json", kind, [1.0] * 130)
        code, out, err = run(capsys, *argv, "--in", doc, "--out", "-")
        assert code == 1 and out == ""
        assert err == "bandlim: series of order 129 outside supported range [0, 128]\n"


# the config flags each command reads; --out is on every command
CONFIG_FLAGS = ("--npoints", "--normalization", "--max-segments")
ACCEPTED = {
    "eval-jn": (),
    "eval-pn": (),
    "gauss-rule": ("--npoints",),
    "forward": (),
    "inverse": ("--normalization", "--max-segments"),
    "project-legendre": (),
    "project-bessel": (),
    "bauer-check": (),
    "ortho-check": ("--max-segments",),
    "calibrate": (),
    "roundtrip": ("--normalization", "--max-segments"),
    "solve-ode": (),
}


class TestConfigFlags:
    def test_each_command_accepts_only_what_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(ACCEPTED)
        slots = 0
        for name, flags in ACCEPTED.items():
            options = sub.choices[name]._option_string_actions
            assert "--out" in options
            assert {f for f in CONFIG_FLAGS if f in options} == set(flags)
            slots += 1 + len(flags)
        assert slots == 18

    @pytest.mark.parametrize("argv", [
        "eval-jn --n 1 --z 1 --npoints 8",
        "bauer-check --z 1 --t 1 --max-segments 50",
        "calibrate --max-segments 50",
        "project-bessel --in {g} --nmax 2 --max-segments 400",
        "inverse --in {g} --t 0.25 --npoints 8",
        "forward --in {g} --z 1 --npoints 40",
        "project-legendre --in {g} --nmax 2 --npoints 40",
        "solve-ode --op {op} --in {g} --z 0 --npoints 40",
        "roundtrip --in {g} --z 1 --npoints 40",
    ], ids=lambda argv: argv.split()[0])
    def test_unread_flag_refused(self, capsys, tmp_path, argv):
        g = write_series(tmp_path, "g.json", "bessel", [2.0])
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"op": [[1.0, 0.0]]}))
        code, out, _ = run(capsys, *argv.format(g=g, op=op).split(), "--out", "-")
        assert code == 1
        assert out == ""

    def test_unread_flag_reported_by_its_command(self, capsys, tmp_path):
        # argparse hands a subcommand's unknown arguments back to the top
        # parser; the subcommand's own usage reports them instead
        g = write_series(tmp_path, "g.json", "bessel", [2.0])
        code, out, err = run(capsys, "inverse", "--in", str(g), "--t", "0.25",
                             "--show-config")
        assert (code, out) == (1, "")
        assert err.startswith("usage: bandlim inverse ")
        assert err.splitlines()[-1] == \
            "bandlim inverse: error: unrecognized arguments: --show-config"

    def test_flag_before_the_command_reported_at_the_top(self, capsys):
        code, out, err = run(capsys, "--bogus", "calibrate")
        assert (code, out) == (1, "")
        assert err.startswith("usage: bandlim [-h]")
        assert err.splitlines()[-1] == "bandlim: error: unrecognized arguments: --bogus"

    @pytest.mark.parametrize("argv", [
        "forward --in {g} --z 0",
        "inverse --in {g} --t 0",
        "project-legendre --in {g} --nmax 0",
        "project-bessel --in {g} --nmax 0",
        "ortho-check --nmax 0",
        "calibrate",
        "roundtrip --in {g} --z 0",
        "solve-ode --op {op} --in {g} --z 0",
    ], ids=lambda argv: argv.split()[0])
    def test_show_config_keys(self, capsys, tmp_path, argv):
        # no command prints config keys: every one refuses --show-config,
        # the engine's three included, as a flag it does not read
        g = write_series(tmp_path, "g.json", "bessel", [2.0])
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"op": [[1.0, 0.0]]}))
        code, out, err = run(capsys, *argv.format(g=g, op=op).split(),
                             "--show-config", "--out", "-")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --show-config" in err

    def test_engine_params_built_only_where_the_engine_runs(self, capsys, tmp_path,
                                                           monkeypatch):
        # forward, the projections and calibrate build no TransformConfig
        # and no LineIntegralParams; inverse and roundtrip build one config
        # each, ortho-check one bare LineIntegralParams
        built = []
        for name in ("TransformConfig", "LineIntegralParams"):
            cls = getattr(bandlim.cli, name)
            monkeypatch.setattr(bandlim.cli, name, type(name, (cls,), {
                "__post_init__": lambda self, cls=cls: (built.append(cls.__name__),
                                                        cls.__post_init__(self))}))
        g = write_series(tmp_path, "g.json", "bessel", [2.0])
        for argv, want in [("forward --in {g} --z 1", []),
                           ("project-legendre --in {g} --nmax 2", []),
                           ("project-bessel --in {g} --nmax 2", []),
                           ("calibrate", []),
                           ("inverse --in {g} --t 0.25", ["LineIntegralParams",
                                                          "TransformConfig"]),
                           ("roundtrip --in {g} --z 1", ["LineIntegralParams",
                                                         "TransformConfig"]),
                           ("ortho-check --nmax 0", ["LineIntegralParams"])]:
            built.clear()
            code, _, _ = run(capsys, *argv.format(g=g).split(), "--out", "-")
            assert (argv, code, built) == (argv, 0, want)

    @pytest.mark.parametrize("argv", ["inverse --t 0.3", "roundtrip --z 1"],
                             ids=lambda argv: argv.split()[0])
    def test_config_refused_before_the_input_is_read(self, capsys, tmp_path, argv):
        # a bad knob is a domain error (exit 1) even when the input document
        # is missing (an I/O error, exit 3): the config is built first
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, *argv.split(), "--in", missing,
                             "--max-segments", "5", "--out", "-")
        assert (code, out, err) == (1, "", "bandlim: need max_segments >= 12\n")


def test_solve_ode_evaluates_g_once_per_point(capsys, tmp_path, monkeypatch):
    calls = []
    solve = bandlim.cli.solve

    def counting_g(*args, **kwargs):
        bundle = solve(*args, **kwargs)

        def g_at(z):
            calls.append(z)
            return bundle.g_at(z)
        return dataclasses.replace(bundle, g_at=g_at)
    monkeypatch.setattr(bandlim.cli, "solve", counting_g)
    h = write_series(tmp_path, "h.json", "bessel", [2.0])
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"op": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}))
    code, out, _ = run(capsys, "solve-ode", "--op", str(op), "--in", h,
                       "--z-min", "-2", "--z-max", "2", "--z-steps", "5",
                       "--out", "-")
    assert code == 0
    assert len(json.loads(out)["g"]) == 5
    assert [np.size(z) for z in calls] == [5]


def test_roundtrip_grid_matches_single_points(capsys, tmp_path):
    g = write_series(tmp_path, "g.json", "bessel", [2.0])
    code, out, _ = run(capsys, "roundtrip", "--in", g, "--z-min", "0",
                       "--z-max", "2", "--z-steps", "3", "--out", "-")
    assert code == 0
    header, *rows = out.splitlines()
    singles = []
    for z in ("0", "1", "2"):
        code, out, _ = run(capsys, "roundtrip", "--in", g, "--z", z, "--out", "-")
        assert code == 0
        assert out.splitlines()[0] == header
        singles += out.splitlines()[1:]
    assert rows == singles


def test_inverse_grid_nonconvergence_names_point(capsys, tmp_path):
    path = write_series(tmp_path, "g.json", "bessel", [2.0])
    code, out, err = run(capsys, "inverse", "--in", path, "--t-min", "0.9",
                         "--t-max", "1", "--t-steps", "3", "--out", "-")
    assert code == 2 and out == ""
    assert "grid index 2" in err and "t=0.999999999" in err


def test_inverse_grid_nonconvergence_names_point_at_a_tight_cap(capsys, tmp_path):
    # the twin of the edge case above: at 18 segments 0.7 and 0.8 converge
    # and 0.9 does not
    path = write_series(tmp_path, "g.json", "bessel", [2.0])
    code, out, err = run(capsys, "inverse", "--in", path, "--t-min", "0.7",
                         "--t-max", "0.9", "--t-steps", "3", "--max-segments", "18",
                         "--out", "-")
    assert code == 2 and out == ""
    assert "grid index 2" in err and "t=0.9 " in err


def test_rules_built_only_by_gauss_rule(capsys, tmp_path, monkeypatch):
    # every command that reads a rule reads the cached 32-point segment
    # rule; once it is warm, only gauss-rule builds one, the rule it prints
    bandlim.quadrature._seg_rule()
    built = []
    for module in (bandlim.quadrature, bandlim.transform, bandlim.cli):
        if hasattr(module, "gauss_legendre_rule"):
            monkeypatch.setattr(module, "gauss_legendre_rule",
                                lambda n, build=module.gauss_legendre_rule:
                                built.append(n) or build(n))
    TransformConfig()
    assert built == []
    g = write_series(tmp_path, "g.json", "bessel", [2.0])
    for argv in ("forward --in {g} --z 1", "project-legendre --in {g} --nmax 2",
                 "inverse --in {g} --t 0.25", "project-bessel --in {g} --nmax 2",
                 "calibrate", "roundtrip --in {g} --z 1"):
        code, _, _ = run(capsys, *argv.format(g=g).split(), "--out", "-")
        assert (argv, code, built) == (argv, 0, [])
    code, _, _ = run(capsys, "gauss-rule", "--npoints", "8", "--out", "-")
    assert code == 0 and built == [8]


CORPUS = Path(__file__).resolve().parents[1] / "tools" / "cli_corpus"


def corpus_entries():
    """The argv of every digest corpus entry, in file order."""
    lines = (CORPUS / "corpus.txt").read_text().splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]


def test_digest_corpus_is_valid():
    # every entry of the digest corpus is an argv the parser accepts, and
    # reads only documents committed next to it
    entries = corpus_entries()
    assert len(entries) == 31
    for argv in entries:
        args = build_parser().parse_args(argv)
        assert args.out == "-"
        for path in (getattr(args, "in", None), getattr(args, "op", None)):
            assert path is None or (CORPUS / path).is_file()


@pytest.fixture(scope="module")
def corpus_runs():
    """Every corpus entry through bandlim.cli.main in one process, in file
    order and then reversed: (argv, first, second) per entry in file order,
    each run its (exit code, stdout, stderr)."""
    def run_captured(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()
    entries = corpus_entries()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(CORPUS)
        forward = [run_captured(argv) for argv in entries]
        backward = [run_captured(argv) for argv in reversed(entries)][::-1]
    return list(zip(entries, forward, backward))


def test_corpus_in_one_process_is_order_independent(corpus_runs):
    # the digest runs each entry in a fresh process; here every entry runs
    # in one, in file order and then reversed, so a result that depends on
    # what ran before it (a cache filled by another entry) shows up
    trips = (["bauer-check", "--z", "9", "--t", "0.8", "--nmax", "3", "--out", "-"],
             ["ortho-check", "--nmax", "3", "--tol", "1e-15", "--out", "-"])
    for argv, first, second in corpus_runs:
        assert first == second, argv
        assert first[0] == (2 if argv in trips else 0), argv


def _rows(out):
    """The data rows of a CSV document as a float array."""
    return np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])


def _input_coeffs(args, kind):
    """The coefficients of the --in document as a series of the given kind,
    by the exact map c_n = 2 i^n cbar_n."""
    series = series_from_json(json.loads((CORPUS / getattr(args, "in")).read_text()))
    if series.kind != kind:
        series = coeff_unbar(series) if kind == "bessel" else coeff_bar(series)
    return series.coeffs


def _jn(n, z):
    """j_n(z) by mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    if z == 0:
        return float(n == 0)
    with mpmath.workdps(40):
        value = float(mpmath.sqrt(mpmath.pi / (2 * abs(z))) * mpmath.besselj(n + 0.5, abs(z)))
    return (-1) ** n * value if z < 0 else value


def _check_eval(out, n, exact):
    rows = _rows(out)
    assert np.all(rows[:, 0] == n) and np.all(rows[:, 3] == 0.0)
    assert max(abs(v - exact(x)) for x, v in rows[:, 1:3]) <= 1e-13


def _check_eval_jn(args, out, code):
    _check_eval(out, args.n, lambda z: _jn(args.n, z))


def _check_eval_pn(args, out, code):
    _check_eval(out, args.n, lambda t: np.polynomial.legendre.legval(t, np.eye(args.n + 1)[-1]))


def _check_gauss_rule(args, out, code):
    nodes, weights = np.polynomial.legendre.leggauss(args.npoints)
    assert np.max(np.abs(_rows(out) - np.stack([nodes, weights], axis=1))) <= 1e-14


def _check_calibrate(args, out, code):
    doc = json.loads(out)
    assert abs(doc["C_star"] - 2 * math.pi) <= 1e-14 and doc["paper_C"] == 4.0


def _check_grid(out, exact, band):
    for x, re, im in _rows(out):
        assert abs(complex(re, im) - exact(x)) <= band, x


def _check_forward(args, out, code):
    # g = sum c_n j_n with c_n = 2 i^n cbar_n, exact at every z
    c = _input_coeffs(args, "bessel")
    _check_grid(out, lambda z: sum(cn * _jn(n, z) for n, cn in enumerate(c)), 1e-13)


def _check_inverse(args, out, code):
    # f = sum cbar_n P_n, within README's bands: 1e-10 for |t| <= 0.9, 4e-7
    # below 0.99 and 4e-5 below 0.999
    cbar = _input_coeffs(args, "legendre")
    for t, re, im in _rows(out):
        assert abs(t) < 0.999, t
        band = 1e-10 if abs(t) <= 0.9 else 4e-7 if abs(t) < 0.99 else 4e-5
        assert abs(complex(re, im) - np.polynomial.legendre.legval(t, cbar)) <= band, t


def _check_roundtrip(args, out, code):
    # g itself, within 1e-7: the inverse leg's nodes reach |t| = 0.9973
    c = _input_coeffs(args, "bessel")
    _check_grid(out, lambda z: sum(cn * _jn(n, z) for n, cn in enumerate(c)), 1e-7)


def _check_projection(args, out, kind, band):
    want = _input_coeffs(args, kind)[:args.nmax + 1]
    want = np.pad(want, (0, args.nmax + 1 - len(want)))
    doc = json.loads(out)
    got = np.array([complex(re, im) for re, im in doc["coeffs"]])
    assert doc["kind"] == kind and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= band


def _check_project_legendre(args, out, code):
    _check_projection(args, out, "legendre", 0.0)  # the series' own coefficients


def _check_project_bessel(args, out, code):
    _check_projection(args, out, "bessel", 0.0)  # the series' own coefficients


def _check_bauer(args, out, code):
    doc = json.loads(out)
    err = abs(complex(*doc["partial_sum"]) - cmath.exp(1j * args.z * args.t))
    assert doc["abs_error"] == pytest.approx(err, abs=1e-16)
    assert doc["pass"] == (err <= args.tol) == (code == 0)


def _check_ortho(args, out, code):
    # the Gram matrix is pi / (2n+1) delta_nm within the gate's default
    # off-diagonal ceiling, and pass is what the matrix gives
    doc = json.loads(out)
    gram = np.array(doc["matrix"])
    n = np.arange(args.nmax + 1)
    assert np.max(np.abs(gram - np.diag(math.pi / (2 * n + 1)))) <= 1e-6
    scaled = gram.diagonal() * (2 * n + 1)
    spread = np.max(np.abs(scaled - np.mean(scaled))) / np.mean(scaled)
    max_off = np.max(np.abs(gram - np.diag(gram.diagonal())))
    assert doc["pass"] == (max_off <= args.tol and spread <= args.diag_rel_tol) == (code == 0)


def _check_solve_ode(args, out, code):
    # h = 2 j_0, so g(z) = int_-1^1 e^{izt} / F(it) dt: pi / 2 and
    # ln(201) / 1.01 at z = 0, by mpmath elsewhere, within the printed
    # residual
    mpmath = pytest.importorskip("mpmath")
    assert _input_coeffs(args, "bessel").tolist() == [2.0]
    op = [complex(re, im) for re, im in json.loads((CORPUS / args.op).read_text())["op"]]
    doc = json.loads(out)
    at_zero = {"op.json": math.pi / 2, "op101.json": math.log(201) / 1.01}[args.op]
    for z, re, im in doc["g"]:
        exact = at_zero if z == 0 else complex(mpmath.quad(
            lambda t: mpmath.exp(1j * z * t) / sum(a * (1j * t) ** k for k, a in enumerate(op)),
            [-1, 1]))
        assert abs(complex(re, im) - exact) <= doc["residual"], z


# an oracle for every command; the bands are README's documented accuracy
ORACLES = {
    "eval-jn": _check_eval_jn, "eval-pn": _check_eval_pn, "gauss-rule": _check_gauss_rule,
    "calibrate": _check_calibrate, "forward": _check_forward, "inverse": _check_inverse,
    "roundtrip": _check_roundtrip, "project-legendre": _check_project_legendre,
    "project-bessel": _check_project_bessel, "bauer-check": _check_bauer,
    "ortho-check": _check_ortho, "solve-ode": _check_solve_ode,
}


def test_corpus_outputs_match_oracles(corpus_runs):
    # every numeric output of the in-process corpus run, the two gate trips
    # included, against an oracle the repo has
    assert set(ORACLES) == set(ACCEPTED)
    for argv, (code, out, _), _ in corpus_runs:
        ORACLES[argv[0]](build_parser().parse_args(argv), out, code)
