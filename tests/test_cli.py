import argparse
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import bandlim.cli
from bandlim.cli import build_parser, main


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


class TestLegendreInput:
    """inverse, roundtrip and project-bessel read a Legendre document as
    its exact Bessel series c_n = 2 i^n cbar_n; forward and
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

    def test_max_segments_flag(self, capsys):
        code, _, err = run(capsys, "calibrate", "--max-segments", "123",
                           "--show-config", "--out", "-")
        assert code == 0
        assert json.loads(err)["max_segments"] == 123

    def test_max_segments_below_minimum(self, capsys):
        code, _, err = run(capsys, "calibrate", "--max-segments", "5",
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

    def test_solve_ode_refuses_legendre_document(self, capsys, tmp_path):
        h = write_series(tmp_path, "h.json", "legendre", [1.0])
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"op": [[1.0, 0.0]]}))
        code, out, err = run(capsys, "solve-ode", "--op", str(op), "--in", h,
                             "--z", "0", "--out", "-")
        assert code == 1 and out == ""
        assert "bessel" in err


# the config flags each command reads; --out is on every command
CONFIG_FLAGS = ("--npoints", "--normalization", "--max-segments",
                "--show-config")
ACCEPTED = {
    "eval-jn": (),
    "eval-pn": (),
    "gauss-rule": ("--npoints",),
    "forward": ("--show-config",),
    "inverse": ("--normalization", "--max-segments", "--show-config"),
    "project-legendre": ("--npoints", "--show-config"),
    "project-bessel": ("--max-segments", "--show-config"),
    "bauer-check": (),
    "ortho-check": ("--max-segments", "--show-config"),
    "calibrate": ("--max-segments", "--show-config"),
    "roundtrip": ("--npoints", "--normalization", "--max-segments",
                  "--show-config"),
    "solve-ode": ("--npoints", "--show-config"),
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
        assert slots == 31

    @pytest.mark.parametrize("argv", [
        "eval-jn --n 1 --z 1 --npoints 8",
        "bauer-check --z 1 --t 1 --max-segments 50",
        "inverse --in {g} --t 0.25 --npoints 8",
        "forward --in {g} --z 1 --npoints 40",
    ], ids=lambda argv: argv.split()[0])
    def test_unread_flag_refused(self, capsys, tmp_path, argv):
        g = write_series(tmp_path, "g.json", "bessel", [2.0])
        code, out, _ = run(capsys, *argv.format(g=g).split(), "--out", "-")
        assert code == 1
        assert out == ""

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
        g = write_series(tmp_path, "g.json", "bessel", [2.0])
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"op": [[1.0, 0.0]]}))
        code, _, err = run(capsys, *argv.format(g=g, op=op).split(),
                           "--show-config", "--out", "-")
        assert code == 0
        assert json.loads(err) == {"normalization": "calibrated",
                                   "npoints": 32, "tol": 1e-9,
                                   "max_segments": 400}


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
