"""README's library example runs as printed and gives its closed forms."""

import math
import pathlib

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    bl = namespace["bl"]
    assert isinstance(namespace["g"], complex)
    assert abs(namespace["g"] - 2.0 * math.sin(1.0)) < 1e-15
    want = 2.0 * np.sinc(namespace["zs"] / np.pi)  # 2 sin z / z
    assert np.max(np.abs(namespace["gs"] - want)) < 1e-14
    assert abs(namespace["c_star"] - 2.0 * math.pi) < 1e-9
    assert np.max(np.abs(namespace["f"] - 1.0)) < 1e-10
    assert abs(namespace["r"] - math.pi / 2) < 1e-14
    sol = namespace["sol"]
    assert isinstance(sol.g_at, bl.BesselSeries)
    assert abs(sol.g_at(0.0) - math.pi / 2) < 1e-14
