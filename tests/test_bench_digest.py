"""tools/bench_digest.py: one untimed pass of a benchmark workload, digested
in a fresh process, the same at every run and against the same tree."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_digest(*argv):
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_digest.py"), *argv],
                         capture_output=True, text=True, check=True, cwd=ROOT)
    return run.stdout.splitlines()


def test_multi_integral_at_one_seed():
    # one line per workload and seed; a second fresh process gives the same
    # digest, as bench/run.py requires of every pass
    lines = bench_digest("--workloads", "multi-integral", "--seeds", "1")
    assert len(lines) == 1
    assert re.fullmatch("multi-integral\tseed=1\tfailed=0\tsha256=[0-9a-f]{64}", lines[0])
    assert bench_digest("--workloads", "multi-integral", "--seeds", "1") == lines
