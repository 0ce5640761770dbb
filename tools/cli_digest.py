"""Run every entry of a CLI corpus in a fresh process and print its digest.

    python tools/cli_digest.py [--src SRC] [--base REV] [CORPUS]

CORPUS (default tools/cli_corpus/corpus.txt) holds one bandlim argv per
line; '#' starts a comment.  Each entry runs as `python -m bandlim.cli
ARGV` with SRC (default this checkout's src/) on PYTHONPATH and the
corpus's directory as working directory, so its relative paths name the
committed input documents.  One line is printed per entry:

    ARGV<TAB>exit=CODE<TAB>stdout=SHA256<TAB>stderr=SHA256

Run it at two commits (or with --src pointing at another checkout's src/)
and diff the outputs: equal lines mean equal bytes and exit codes.  With
--base REV it does that itself: it extracts REV's src/ with `git archive`
into a temporary directory, digests the corpus with both trees, prints
each entry that differs as a `-` line (REV) and a `+` line (SRC), and
exits 0.
"""

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def entries(corpus):
    """The argv of every entry of the corpus, in file order."""
    for line in corpus.read_text().splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            yield argv


def digest(argv, src, cwd):
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "bandlim.cli", *argv], cwd=cwd,
                         env=env, capture_output=True, check=False)
    return "\t".join([shlex.join(argv), f"exit={run.returncode}",
                      f"stdout={hashlib.sha256(run.stdout).hexdigest()}",
                      f"stderr={hashlib.sha256(run.stderr).hexdigest()}"])


def archived_src(rev, into):
    """REV's src/ from this checkout's history, extracted under into."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, capture_output=True, check=True)
    return Path(into) / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", nargs="?", type=Path,
                        default=ROOT / "tools" / "cli_corpus" / "corpus.txt")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the bandlim package")
    parser.add_argument("--base", metavar="REV",
                        help="print only the entries whose digest differs at git revision REV")
    args = parser.parse_args(argv)
    cwd = args.corpus.resolve().parent
    if args.base is None:
        for entry in entries(args.corpus):
            print(digest(entry, args.src.resolve(), cwd), flush=True)
        return
    with tempfile.TemporaryDirectory() as tmp:
        try:
            base = archived_src(args.base, tmp)
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot archive src/ at {args.base}: {exc.stderr.decode().strip()}")
        for entry in entries(args.corpus):
            old, new = digest(entry, base, cwd), digest(entry, args.src.resolve(), cwd)
            if old != new:
                print(f"-{old}\n+{new}", flush=True)


if __name__ == "__main__":
    main()
