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
from functools import partial

import numpy as np

from .errors import BandlimError, ConvergenceError, DomainError
from .odesolve import operator_from_json, solve
from .quadrature import LineIntegralParams, gauss_legendre_rule
from .specfun import legendre_all, spherical_j_all
from .transform import (_DEFAULT_COMPACT_POINTS, CALIBRATED, PAPER_C,
                        PAPER_QUARTER, BesselSeries, LegendreSeries,
                        TransformConfig, bauer_partial_sum, bessel_projection,
                        calibrate_normalization, coeff_bar, coeff_unbar,
                        forward_transform, inverse_transform,
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


def _grid(args, var):
    """The single --<var> value, else --<var>-steps points from --<var>-min
    to --<var>-max; a t grid stays strictly inside (-1, 1)."""
    if getattr(args, var) is not None:
        return np.array([getattr(args, var)])
    lo, hi, steps = (getattr(args, f"{var}_{k}") for k in ("min", "max", "steps"))
    if var == "t":
        lo, hi = max(lo, -1.0 + _T_CLAMP), min(hi, 1.0 - _T_CLAMP)
    if steps < 1:
        raise DomainError(f"--{var}-steps must be >= 1")
    if steps == 1:  # not linspace: a one-point linspace to hi = inf is nan
        return np.array([lo])
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite ends: refused later
        return np.linspace(lo, hi, steps)


def _add_grid_flags(p, var, lo, hi, steps=21):
    p.add_argument(f"--{var}", type=float, default=None, help=f"single {var} value")
    p.add_argument(f"--{var}-min", type=float, default=lo)
    p.add_argument(f"--{var}-max", type=float, default=hi)
    p.add_argument(f"--{var}-steps", type=int, default=steps)


def _threshold(text):
    """Gate threshold type: a finite float >= 0; argparse refuses the rest."""
    if 0.0 <= float(text) < np.inf:
        return float(text)
    raise argparse.ArgumentTypeError(f"threshold must be finite and >= 0, got {text!r}")
_threshold.__name__ = "float"  # unparsable text reads "invalid float value"


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
    p.set_defaults(npoints=_DEFAULT_COMPACT_POINTS, normalization=CALIBRATED,
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


def _load(path, kind):
    """A series of the given kind from a series document; the other kind
    maps exactly by c_n = 2 i^n cbar_n."""
    series = series_from_json(_read_json(path))
    if isinstance(series, kind):
        return series
    return coeff_bar(series) if kind is LegendreSeries else coeff_unbar(series)


def _cmd_eval(var, table, args):
    """One special function, from table(n, grid)[n], on the var grid."""
    xs = _grid(args, var)
    vals = table(args.n, xs)[args.n]
    rows = [[str(args.n), _f(x), _f(v), _f(0.0)] for x, v in zip(xs, vals)]
    _write_csv(args.out, ["n", var, "re", "im"], rows)
    return 0


def _cmd_gauss_rule(args):
    rule = gauss_legendre_rule(args.npoints)
    rows = [[_f(x), _f(w)] for x, w in zip(rule.nodes, rule.weights)]
    _write_csv(args.out, ["node", "weight"], rows)
    return 0


def _cmd_on_grid(kind, transform, var, args):
    """transform(series, grid, config) of a series of the given kind."""
    config = _build_config(args)
    series = _load(getattr(args, "in"), kind)
    xs = _grid(args, var)
    vs = transform(series, xs, config)
    rows = [[_f(x), _f(v.real), _f(v.imag)] for x, v in zip(xs, vs)]
    _write_csv(args.out, [var, "re", "im"], rows)
    return 0


def _cmd_project(kind, project, args):
    """The coefficient document project(series, nmax, config)."""
    config = _build_config(args)
    series = _load(getattr(args, "in"), kind)
    _write_json(args.out, series_to_json(project(series, args.nmax, config)))
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
    zs = _grid(args, "z")
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
    _add_grid_flags(p, "z", 0.0, 10.0)
    _add_common(p)
    p.set_defaults(fn=partial(_cmd_eval, "z", spherical_j_all))

    p = sub.add_parser("eval-pn", help="Legendre P_n on a t grid")
    p.add_argument("--n", type=int, required=True)
    _add_grid_flags(p, "t", -1.0, 1.0)
    _add_common(p)
    p.set_defaults(fn=partial(_cmd_eval, "t", legendre_all))

    p = sub.add_parser("gauss-rule", help="Gauss-Legendre nodes and weights")
    _add_common(p, "npoints")
    p.set_defaults(fn=_cmd_gauss_rule)

    p = sub.add_parser("forward", help="forward transform of a series on a z grid")
    p.add_argument("--in", required=True, help="series JSON path")
    _add_grid_flags(p, "z", 0.0, 10.0)
    _add_common(p, "show-config")
    p.set_defaults(fn=partial(_cmd_on_grid, LegendreSeries, forward_transform, "z"))

    p = sub.add_parser("inverse", help="inverse transform on a t grid")
    p.add_argument("--in", required=True, help="series JSON path")
    _add_grid_flags(p, "t", -1.0, 1.0)
    _add_common(p, "normalization", "max-segments", "show-config")
    p.set_defaults(fn=partial(_cmd_on_grid, BesselSeries, inverse_transform, "t"))

    p = sub.add_parser("project-legendre", help="Legendre coefficients of a series")
    p.add_argument("--in", required=True, help="series JSON path")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p, "npoints", "show-config")
    p.set_defaults(fn=partial(_cmd_project, LegendreSeries, lambda f, nmax, config:
                              legendre_projection(f, nmax, config.compact_rule)))

    p = sub.add_parser("project-bessel", help="spherical-Bessel coefficients")
    p.add_argument("--in", required=True, help="series JSON path")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p, "max-segments", "show-config")
    p.set_defaults(fn=partial(_cmd_project, BesselSeries, bessel_projection))

    p = sub.add_parser("bauer-check", help="plane-wave expansion gate")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--nmax", type=int, default=60)
    p.add_argument("--tol", type=_threshold, default=1e-10)
    _add_common(p)
    p.set_defaults(fn=_cmd_bauer_check)

    p = sub.add_parser("ortho-check", help="measured j_n orthogonality gate")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--tol", type=_threshold, default=1e-6,
                   help="off-diagonal ceiling")
    p.add_argument("--diag-rel-tol", type=_threshold, default=1e-4,
                   help="relative spread ceiling for K_n (2n+1)")
    _add_common(p, "max-segments", "show-config")
    p.set_defaults(fn=_cmd_ortho_check)

    p = sub.add_parser("calibrate", help="measure the inverse divisor C*")
    _add_common(p, "max-segments", "show-config")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("roundtrip", help="inverse-then-forward on a z grid")
    p.add_argument("--in", required=True, help="series JSON path")
    _add_grid_flags(p, "z", 0.0, 10.0)
    _add_common(p, "npoints", "normalization", "max-segments",
                "show-config")
    p.set_defaults(fn=partial(_cmd_on_grid, BesselSeries, roundtrip, "z"))

    p = sub.add_parser("solve-ode", help="solve L g = h by symbol division")
    p.add_argument("--op", required=True, help="operator JSON path")
    p.add_argument("--in", required=True, help="right-hand-side series JSON path")
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--residual-threshold", type=_threshold, default=None)
    _add_grid_flags(p, "z", -10.0, 10.0, 9)
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
    except (BandlimError, ValueError) as exc:
        print(f"bandlim: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"bandlim: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
