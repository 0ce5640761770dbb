"""Command-line front end.

Subcommands evaluate the special functions, run the transform pair and the
projections, verify the expansion and orthogonality identities (usable as
CI gates), calibrate the inverse normalization, and solve constant
coefficient ODEs.  Data goes to the output path ("-" for standard output)
as CSV or JSON; diagnostics go to standard error.

Exit codes: 0 success, 1 domain/validation error, 2 numerical
non-convergence or a violated check tolerance, 3 I/O error.
"""

import argparse
import json
import sys

import numpy as np

from .errors import BandlimError, ConvergenceError
from .odesolve import operator_from_json, solve
from .quadrature import LineIntegralParams, gauss_legendre_rule
from .specfun import legendre_all, spherical_j_all
from .transform import (CALIBRATED, PAPER_C, PAPER_QUARTER, BesselSeries,
                        LegendreSeries, TransformConfig, bauer_partial_sum,
                        bessel_projection, calibrate_normalization, coeff_bar,
                        coeff_unbar, forward_transform, inverse_transform,
                        legendre_projection, orthogonality_matrix_j,
                        roundtrip, series_from_json, series_to_json)

_T_CLAMP = 1e-9  # t grids stay strictly inside (-1, 1)


def _f(x):
    """Full-precision float field for CSV output."""
    return repr(float(x))


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _z_grid(args):
    if args.z is not None:
        return np.array([args.z])
    if args.z_steps < 1:
        raise argparse.ArgumentTypeError("--z-steps must be >= 1")
    if args.z_steps == 1:
        return np.array([args.z_min])
    return np.linspace(args.z_min, args.z_max, args.z_steps)


def _t_grid(args):
    if args.t is not None:
        return np.array([args.t])
    lo = max(args.t_min, -1.0 + _T_CLAMP)
    hi = min(args.t_max, 1.0 - _T_CLAMP)
    if args.t_steps < 1:
        raise argparse.ArgumentTypeError("--t-steps must be >= 1")
    if args.t_steps == 1:
        return np.array([lo])
    return np.linspace(lo, hi, args.t_steps)


def _add_z_flags(p, default_min=0.0, default_max=10.0, default_steps=21):
    p.add_argument("--z", type=float, default=None, help="single z value")
    p.add_argument("--z-min", type=float, default=default_min)
    p.add_argument("--z-max", type=float, default=default_max)
    p.add_argument("--z-steps", type=int, default=default_steps)


def _add_t_flags(p, default_steps=21):
    p.add_argument("--t", type=float, default=None, help="single t value")
    p.add_argument("--t-min", type=float, default=-1.0)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--t-steps", type=int, default=default_steps)


_CONFIG_FLAGS = {
    "npoints": dict(type=int, help="compact Gauss-Legendre rule size"),
    "normalization": dict(choices=[CALIBRATED, PAPER_QUARTER]),
    "max-segments": dict(type=int, help="line-integral segment cap"),
    "show-config": dict(action="store_true",
                        help="print the effective configuration to stderr"),
}


def _add_common(p, *flags):
    """--out and the named _CONFIG_FLAGS; a command accepts only the config
    flags it reads, and every other config field keeps its default."""
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(npoints=32, normalization=CALIBRATED,
                   max_segments=LineIntegralParams.max_segments)
    for flag in flags:
        p.add_argument("--" + flag, **_CONFIG_FLAGS[flag])


def _build_config(args):
    params = LineIntegralParams(max_segments=args.max_segments)
    config = TransformConfig(normalization=args.normalization,
                             line_params=params,
                             compact_rule=gauss_legendre_rule(args.npoints))
    if args.show_config:
        print(json.dumps({
            "normalization": config.normalization,
            "npoints": len(config.compact_rule),
            "tol": params.tol,
            "max_segments": params.max_segments,
        }, indent=2), file=sys.stderr)
    return config


def _load_legendre(path):
    series = series_from_json(_read_json(path))
    if isinstance(series, BesselSeries):
        series = coeff_bar(series)
    return series


def _load_bessel(path):
    """A Bessel series from a series document; a Legendre series maps
    exactly by c_n = 2 i^n cbar_n."""
    series = series_from_json(_read_json(path))
    if isinstance(series, LegendreSeries):
        series = coeff_unbar(series)
    return series


def _cmd_eval_jn(args):
    zs = _z_grid(args)
    js = spherical_j_all(args.n, zs)[args.n]
    rows = [[str(args.n), _f(z), _f(j), _f(0.0)] for z, j in zip(zs, js)]
    _write_csv(args.out, ["n", "z", "re", "im"], rows)
    return 0


def _cmd_eval_pn(args):
    ts = _t_grid(args)
    ps = legendre_all(args.n, ts)[args.n]
    rows = [[str(args.n), _f(t), _f(p), _f(0.0)] for t, p in zip(ts, ps)]
    _write_csv(args.out, ["n", "t", "re", "im"], rows)
    return 0


def _cmd_gauss_rule(args):
    rule = gauss_legendre_rule(args.npoints)
    rows = [[_f(x), _f(w)] for x, w in zip(rule.nodes, rule.weights)]
    _write_csv(args.out, ["node", "weight"], rows)
    return 0


def _cmd_forward(args):
    config = _build_config(args)
    f = _load_legendre(getattr(args, "in"))
    zs = _z_grid(args)
    gs = forward_transform(f, zs, config)
    rows = [[_f(z), _f(g.real), _f(g.imag)] for z, g in zip(zs, gs)]
    _write_csv(args.out, ["z", "re", "im"], rows)
    return 0


def _cmd_inverse(args):
    config = _build_config(args)
    g = _load_bessel(getattr(args, "in"))
    ts = _t_grid(args)
    vs = inverse_transform(g, ts, config)
    rows = [[_f(t), _f(v.real), _f(v.imag)] for t, v in zip(ts, vs)]
    _write_csv(args.out, ["t", "re", "im"], rows)
    return 0


def _cmd_project_legendre(args):
    config = _build_config(args)
    f = _load_legendre(getattr(args, "in"))
    series = legendre_projection(f, args.nmax, config.compact_rule)
    _write_json(args.out, series_to_json(series))
    return 0


def _cmd_project_bessel(args):
    config = _build_config(args)
    g = _load_bessel(getattr(args, "in"))
    series = bessel_projection(g, args.nmax, config)
    _write_json(args.out, series_to_json(series))
    return 0


def _cmd_bauer_check(args):
    s = bauer_partial_sum(args.z, args.t, args.nmax)
    exact = complex(np.exp(1j * args.z * args.t))
    err = abs(s - exact)
    ok = err <= args.tol
    _write_json(args.out, {
        "z": args.z, "t": args.t, "nmax": args.nmax,
        "partial_sum": [s.real, s.imag],
        "exact": [exact.real, exact.imag],
        "abs_error": err, "tol": args.tol, "pass": ok,
    })
    return 0 if ok else 2


def _cmd_ortho_check(args):
    config = _build_config(args)
    gram = orthogonality_matrix_j(args.nmax, config.line_params)
    n = np.arange(args.nmax + 1)
    scaled = gram.diagonal() * (2 * n + 1)
    const = float(np.mean(scaled))
    diag_rel = float(np.max(np.abs(scaled - const)) / abs(const))
    off = gram - np.diag(gram.diagonal())
    max_off = float(np.max(np.abs(off)))
    ok = max_off <= args.tol and diag_rel <= args.diag_rel_tol
    _write_json(args.out, {
        "nmax": args.nmax,
        "matrix": [[float(v) for v in row] for row in gram],
        "measured_diag_constant": const,
        "printed_diag_constant": 2.0,
        "diag_rel_spread": diag_rel,
        "max_offdiag": max_off,
        "tol": args.tol,
        "diag_rel_tol": args.diag_rel_tol,
        "pass": ok,
    })
    return 0 if ok else 2


def _cmd_calibrate(args):
    config = _build_config(args)
    c_star = calibrate_normalization(config)
    _write_json(args.out, {
        "C_star": c_star,
        "paper_C": PAPER_C,
        "ratio": c_star / PAPER_C,
    })
    return 0


def _cmd_roundtrip(args):
    config = _build_config(args)
    g = _load_bessel(getattr(args, "in"))
    zs = _z_grid(args)
    vs = roundtrip(g, zs, config)
    rows = [[_f(z), _f(v.real), _f(v.imag)] for z, v in zip(zs, vs)]
    _write_csv(args.out, ["z", "re", "im"], rows)
    return 0


def _cmd_solve_ode(args):
    config = _build_config(args)
    op = operator_from_json(_read_json(args.op))
    h = series_from_json(_read_json(getattr(args, "in")))
    if not isinstance(h, BesselSeries):
        raise BandlimError("solve-ode requires a bessel series document for h")
    bundle = solve(op, h, args.nmax, config,
                   residual_threshold=args.residual_threshold)
    report = {
        "f_series": series_to_json(bundle.f_series),
        "residual": bundle.residual_report,
    }
    zs = _z_grid(args)
    gs = bundle.g_at(zs)
    report["g"] = [[float(z), float(g.real), float(g.imag)] for z, g in zip(zs, gs)]
    _write_json(args.out, report)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bandlim",
        description="Legendre / spherical-Bessel transform toolbox")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval-jn", help="spherical Bessel j_n on a z grid")
    p.add_argument("--n", type=int, required=True)
    _add_z_flags(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_eval_jn)

    p = sub.add_parser("eval-pn", help="Legendre P_n on a t grid")
    p.add_argument("--n", type=int, required=True)
    _add_t_flags(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_eval_pn)

    p = sub.add_parser("gauss-rule", help="Gauss-Legendre nodes and weights")
    _add_common(p, "npoints")
    p.set_defaults(fn=_cmd_gauss_rule)

    p = sub.add_parser("forward", help="forward transform of a series on a z grid")
    p.add_argument("--in", required=True, help="series JSON path")
    _add_z_flags(p)
    _add_common(p, "npoints", "show-config")
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("inverse", help="inverse transform on a t grid")
    p.add_argument("--in", required=True, help="series JSON path")
    _add_t_flags(p)
    _add_common(p, "normalization", "max-segments", "show-config")
    p.set_defaults(fn=_cmd_inverse)

    p = sub.add_parser("project-legendre", help="Legendre coefficients of a series")
    p.add_argument("--in", required=True, help="series JSON path")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p, "npoints", "show-config")
    p.set_defaults(fn=_cmd_project_legendre)

    p = sub.add_parser("project-bessel", help="spherical-Bessel coefficients")
    p.add_argument("--in", required=True, help="series JSON path")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p, "max-segments", "show-config")
    p.set_defaults(fn=_cmd_project_bessel)

    p = sub.add_parser("bauer-check", help="plane-wave expansion gate")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--nmax", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(fn=_cmd_bauer_check)

    p = sub.add_parser("ortho-check", help="measured j_n orthogonality gate")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="off-diagonal ceiling")
    p.add_argument("--diag-rel-tol", type=float, default=1e-4,
                   help="relative spread ceiling for K_n (2n+1)")
    _add_common(p, "max-segments", "show-config")
    p.set_defaults(fn=_cmd_ortho_check)

    p = sub.add_parser("calibrate", help="measure the inverse divisor C*")
    _add_common(p, "max-segments", "show-config")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("roundtrip", help="inverse-then-forward on a z grid")
    p.add_argument("--in", required=True, help="series JSON path")
    _add_z_flags(p)
    _add_common(p, "npoints", "normalization", "max-segments",
                "show-config")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("solve-ode", help="solve L g = h by symbol division")
    p.add_argument("--op", required=True, help="operator JSON path")
    p.add_argument("--in", required=True, help="right-hand-side series JSON path")
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--residual-threshold", type=float, default=None)
    _add_z_flags(p, default_min=-10.0, default_max=10.0, default_steps=9)
    _add_common(p, "npoints", "show-config")
    p.set_defaults(fn=_cmd_solve_ode)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"bandlim: did not converge: {exc}", file=sys.stderr)
        return 2
    except (BandlimError, argparse.ArgumentTypeError, ValueError) as exc:
        print(f"bandlim: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"bandlim: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
