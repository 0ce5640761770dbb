"""Digest one untimed pass of each benchmark workload and print it.

    python tools/bench_digest.py [--src SRC] [--base REV] [--seeds N ...] [--workloads NAME ...]

For every workload of bench/workloads.py (default all) and every seed
(default 1), the operations are built as bench/run.py builds them and run
once, untimed, through bench/run.py's run_pass.  One line is printed per
workload and seed:

    WORKLOAD<TAB>seed=SEED<TAB>failed=COUNT<TAB>sha256=DIGEST

DIGEST is the SHA-256 of every operation's failure flag and result
fingerprint, in order: equal lines mean the same results bit for bit, and
the same failures with the same error texts and last values.  Each tree
runs in a fresh process with SRC (default this checkout's src/) first on
sys.path and with one BLAS thread, as the benchmark runs.  With --base REV
it extracts REV's src/ with `git archive` into a temporary directory, digests
both trees, prints each line that differs as a `-` line (REV) and a `+`
line (SRC), and exits 0.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_digest import archived_src

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# one process per tree: bench/run.py sets one BLAS thread before numpy loads;
# no bytecode is written under bench/
_CHILD = r"""
import hashlib, os, sys, tempfile
bench, src, names, seeds = sys.argv[1:]
sys.dont_write_bytecode = True
sys.path[:0] = [src, bench]
import run, workloads
import bandlim, bandlim.cli
if not os.path.abspath(bandlim.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"bench_digest: imported bandlim from {bandlim.__file__}, not {src}")
config = bandlim.TransformConfig()
bandlim.calibrate_normalization(config)
for name in names.split(","):
    for seed in seeds.split(","):
        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.WORKLOADS[name](bandlim, config, int(seed), workdir)
            rows = run.run_pass(ops, bandlim.ConvergenceError)
        sha = hashlib.sha256()
        for _, failed, _, fp in rows:
            sha.update(b"%d %d:" % (failed, len(fp)) + fp)
        print(f"{name}\tseed={seed}\tfailed={sum(row[1] for row in rows)}\t"
              f"sha256={sha.hexdigest()}", flush=True)
"""


def digests(src, names, seeds):
    """The digest lines of one tree, from a fresh process."""
    run = subprocess.run([sys.executable, "-c", _CHILD, str(BENCH), str(src), ",".join(names),
                          ",".join(map(str, seeds))], capture_output=True, text=True, check=False)
    if run.returncode:
        sys.exit(f"bench_digest: the pass on {src} failed:\n{run.stderr.strip()}")
    return run.stdout.splitlines()


def main(argv=None):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the bandlim package")
    parser.add_argument("--base", metavar="REV",
                        help="print only the lines that differ at git revision REV")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.base is None:
        print(*digests(src, args.workloads, args.seeds), sep="\n")
        return
    with tempfile.TemporaryDirectory() as tmp:
        try:
            base = archived_src(args.base, tmp)
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot archive src/ at {args.base}: {exc.stderr.decode().strip()}")
        old = digests(base, args.workloads, args.seeds)
    for a, b in zip(old, digests(src, args.workloads, args.seeds)):
        if a != b:
            print(f"-{a}\n+{b}", flush=True)


if __name__ == "__main__":
    main()
