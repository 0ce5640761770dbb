"""The same output bits at one and at two BLAS threads.

Each setting runs in a child Python whose environment alone sets
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS.  The child prints the SHA-256 of
every result that reaches a coefficient product: a degree-128 Bessel
projection, the corpus entries that project, calibrate or solve an ODE,
and one solve of a degree-128 right-hand side.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import contextlib, hashlib, io, json, shlex
import numpy as np
from bandlim import BesselSeries, bessel_projection, solve
from bandlim.cli import main
from bandlim.odesolve import operator_from_json

def sha(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()

rng = np.random.default_rng(128)
g = BesselSeries(rng.normal(size=129) + 1j * rng.normal(size=129))
print("bessel_projection to nmax 128", sha(bessel_projection(g, 128, None).coeffs), sep="\t")
for line in open("corpus.txt").read().splitlines():
    argv = shlex.split(line, comments=True)
    if argv and argv[0] in ("project-bessel", "solve-ode", "calibrate"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        print(shlex.join(argv), f"exit={code}", hashlib.sha256(out.getvalue().encode()).hexdigest(),
              sep="\t")
op = operator_from_json(json.load(open("op101.json")))
h = BesselSeries(rng.normal(size=129) + 1j * rng.normal(size=129))
print("solve op101.json to degree 128", sha(solve(op, h, 128, None).f_series.coeffs), sep="\t")
"""

FULL_SOLVE = "solve op101.json to degree 128"


@pytest.fixture(scope="module")
def digests():
    """{threads: {label: digest}} for one child at one and one at two threads."""
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT / "tools" / "cli_corpus",
                             env=env, capture_output=True, text=True, check=True)
        out[threads] = dict(line.split("\t", 1) for line in run.stdout.splitlines())
    return out


def test_products_same_bits_at_1_and_2_threads(digests):
    # the projection and 7 corpus entries: the three project-bessel, the
    # three solve-ode and calibrate
    one, two = ({k: v for k, v in d.items() if k != FULL_SOLVE} for d in digests.values())
    assert len(one) == 8 and all("exit=0" in v for k, v in one.items() if " --" in k)
    assert one == two


@pytest.mark.xfail(strict=False, reason="ROADMAP item 14: np.linalg.solve (LAPACK) on the "
                   "N = 128 section of a full right-hand side orders its sums by thread count")
def test_full_solve_same_bits_at_1_and_2_threads(digests):
    assert digests["1"][FULL_SOLVE] == digests["2"][FULL_SOLVE]
