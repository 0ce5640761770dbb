"""bandlim needs nothing at run time beyond numpy."""

import os
import subprocess
import sys

import bandlim


def test_import_loads_neither_scipy_nor_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bandlim.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import bandlim, bandlim.cli; "
            "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
