"""Per-layer tracing of bandlim from outside the package.

Every module-level function of each layer module, and the series classes'
__call__, is replaced in every bandlim namespace that binds it by a wrapper
that counts calls and records a span on a stack.  A span's self time is its
duration minus the time covered by its child spans.  A few wrappers also read
their arguments to count work: points passed to _jn_table, core points and
tail segments of the line engine, envelope calls, bytes the CLI writes.

A function that a later bandlim no longer has is not wrapped, and the
metrics derived from it are left out.
"""

import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("specfun", "quadrature", "transform", "odesolve", "cli")
SERIES_CLASSES = ("BesselSeries", "LegendreSeries")
# spans that evaluate a band-limited function; the envelopes returned by the
# factories are wrapped as series evaluations too
SERIES_EVAL = {"transform._series_values", "transform.BesselSeries.__call__",
               "transform.LegendreSeries.__call__"}
ENVELOPE_FACTORIES = {"transform._forward_envelope", "transform._jn_product_envelope"}
# _jn_table and the three regimes it dispatches to
JN_TABLE = ("specfun._jn_table", "specfun._jn_series", "specfun._jn_upward",
            "specfun._jn_miller")
LINE = "quadrature.integrate_oscillatory_line"
SEGMENT = "quadrature._segment_integral"
EVAL = "quadrature._eval_integrand"
ACCELERATE = "quadrature._accelerate"
LINE_ENGINE = (LINE, SEGMENT, EVAL, "quadrature._seg_rule")
CLI_IO = {"cli._write_text", "cli._read_json"}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.wrapped = set()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.series_s = 0.0
        self.io_s = 0.0
        self._stack = []          # child time accumulated by each open span
        self._depth = defaultdict(int)
        self._lines = []          # segment length of each open line integral
        self._in_core = False
        self._patches = []
        self._probes = {
            "specfun._jn_table": self._probe_jn_table,
            LINE: self._probe_line,
            SEGMENT: self._probe_segment,
            EVAL: self._probe_eval,
            "cli._write_text": self._probe_write,
            "transform.calibrate_normalization": self._probe_calibrate,
        }

    def install(self):
        prefix = self.package.__name__
        namespaces = [vars(mod) for name, mod in sorted(sys.modules.items())
                      if mod is not None and (name == prefix or name.startswith(prefix + "."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"{prefix}.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(obj, f"{layer}.{name}")
                    for ns in namespaces:
                        for bound, value in list(ns.items()):
                            if value is obj:
                                self._patches.append((ns, bound, obj))
                                ns[bound] = wrapped
                elif (inspect.isclass(obj) and name in SERIES_CLASSES
                      and obj.__module__ == mod.__name__ and "__call__" in vars(obj)):
                    original = vars(obj)["__call__"]
                    self._patches.append((obj, "__call__", original))
                    obj.__call__ = self._wrap(original, f"{layer}.{name}.__call__")

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._patches.clear()

    def _wrap(self, fn, key, series=None):
        self.wrapped.add(key)
        probe = self._probes.get(key)
        series = key in SERIES_EVAL if series is None else series
        io = key in CLI_IO
        line = key == LINE
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if probe is not None:
                probe(*args, **kwargs)
            self._depth["series"] += series
            self._depth["io"] += io
            self._stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[key] += elapsed - self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self._depth["series"] -= series
                self._depth["io"] -= io
                if series and not self._depth["series"]:
                    self.series_s += elapsed
                if io and not self._depth["io"]:
                    self.io_s += elapsed
                if line:
                    self._lines.pop()
            if line:
                self.counts["line.accepted"] += 1
            return result

        if key in ENVELOPE_FACTORIES:
            def factory(*args, **kwargs):
                return self._wrap(wrapper(*args, **kwargs), key + ".env", series=True)
            return factory
        return wrapper

    # -- argument probes --------------------------------------------------

    def _probe_jn_table(self, nmax, z, *rest, **kwargs):
        self.counts["jn_table.points"] += getattr(z, "size", 1)

    def _probe_line(self, envelope, t, params=None, *rest, **kwargs):
        params = kwargs.get("params", params)
        if params is None:
            quad = sys.modules[f"{self.package.__name__}.quadrature"]
            params = getattr(quad, "LineIntegralParams", lambda: None)()
        self._lines.append(getattr(params, "segment_length", math.pi))

    def _probe_segment(self, fn, a, b, *rest, **kwargs):
        # tail segments are exactly one segment length; core chunks never are
        if self._lines:
            length = self._lines[-1]
            self._in_core = abs((b - a) - length) > 1e-9 * length
            if not self._in_core:
                self.counts["line.tail_segments"] += 1

    def _probe_eval(self, fn, x, *rest, **kwargs):
        if self._lines:
            points = getattr(x, "size", 1)
            self.counts["line.envelope_calls"] += 1
            self.counts["line.envelope_points"] += points
            if self._in_core:
                self.counts["line.core_points"] += points
                self._in_core = False

    def _probe_calibrate(self, config, mode=0, *rest, **kwargs):
        # every inverse transform looks its divisor up through this function;
        # only a call that integrates counts as a calibration
        if kwargs.get("mode", mode) != 0 or getattr(config, "_c_star", None) is None:
            self.counts["calibrate.computed"] += 1

    def _probe_write(self, path, text, *rest, **kwargs):
        self.counts["cli.bytes_out"] += len(text.encode())

    # -- results ----------------------------------------------------------

    def counters(self):
        """Everything that must repeat exactly between two traced passes."""
        return dict(sorted(self.calls.items())), dict(sorted(self.counts.items()))

    def table(self):
        """Per-function calls and self time."""
        return {k: {"calls": self.calls[k], "self_s": self.self_s[k]} for k in sorted(self.calls)}

    def metrics(self):
        calls, counts, self_s = self.calls, self.counts, self.self_s
        out = {}

        def put(name, value, unit, *needs):
            if all(key in self.wrapped for key in needs):
                out[name] = {"value": value, "unit": unit}

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        put("specfun.jn_table.calls", calls[JN_TABLE[0]], "count", JN_TABLE[0])
        put("specfun.jn_table.points", counts["jn_table.points"], "count", JN_TABLE[0])
        put("specfun.jn_table.self_s", sum(self_s[k] for k in JN_TABLE), "s", JN_TABLE[0])
        for metric, key in (("specfun.legendre_all", "specfun.legendre_all"),
                            ("quadrature.gauss_rule", "quadrature.gauss_legendre_rule"),
                            ("quadrature.accelerate", ACCELERATE),
                            ("quadrature.levin", "quadrature._levin_limit")):
            put(metric + ".calls", calls[key], "count", key)
            put(metric + ".self_s", self_s[key], "s", key)
        put("quadrature.line.integrals", calls[LINE], "count", LINE)
        put("quadrature.line.self_s", sum(self_s[k] for k in LINE_ENGINE), "s", LINE)
        put("quadrature.line.core_points", counts["line.core_points"], "count",
            LINE, SEGMENT, EVAL)
        put("quadrature.line.tail_segments", counts["line.tail_segments"], "count", LINE, SEGMENT)
        put("quadrature.line.envelope_calls", counts["line.envelope_calls"], "count", LINE, EVAL)
        put("quadrature.line.points_per_envelope_call",
            _ratio(counts["line.envelope_points"], counts["line.envelope_calls"]),
            "points/call", LINE, EVAL)
        # the engine accelerates both tails once per convergence check
        put("quadrature.line.checks_per_integral",
            _ratio(calls[ACCELERATE] / 2, counts["line.accepted"]), "checks/integral",
            LINE, ACCELERATE)
        for metric, fn in (("inverse", "inverse_transform"), ("roundtrip", "roundtrip"),
                           ("bessel_projection", "bessel_projection"),
                           ("gram", "orthogonality_matrix_j"), ("forward", "forward_transform")):
            put(f"transform.{metric}.calls", calls[f"transform.{fn}"], "count",
                f"transform.{fn}")
        put("transform.calibrate.calls", counts["calibrate.computed"], "count",
            "transform.calibrate_normalization")
        put("transform.self_s", layer_self("transform"), "s")
        put("transform.series_eval_s", self.series_s, "s")
        put("odesolve.solve.calls", calls["odesolve.solve"], "count", "odesolve.solve")
        put("odesolve.self_s", layer_self("odesolve"), "s")
        put("cli.commands", calls["cli.main"], "count", "cli.main")
        put("cli.self_s", layer_self("cli"), "s")
        put("cli.io_s", self.io_s, "s", *CLI_IO)
        put("cli.bytes_out", counts["cli.bytes_out"], "bytes", "cli._write_text")
        return out


def _ratio(num, den):
    return num / den if den else 0.0
