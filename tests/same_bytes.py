"""Same bytes: the CLI's output from this tree against that of a git ref.

Runs one fixed list of argv through `python -m photonstat` twice, once on
the working tree's src/ and once on the ref's src/, extracted with `git
archive` into a temporary directory, and prints every argv whose stdout,
stderr or exit code differ.  The list is every benchmark argv at seeds
1-3, read from photonbench/workloads.build, plus extras that reach long
Q^(l) rows, exits 3 and 4, and the JSON A3 detail.  Exits 1 if any argv
differs.  It uses the standard library alone, and pytest does not collect
it.

    python tests/same_bytes.py --base <git ref>
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "photonbench"))
from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (1, 2, 3)
EXTRAS = (
    "criteria --family coherent --param 40 --subtract 3 --ell-max 30",
    "criteria --family fock --param 1 --ell-max 110",  # exit 3
    "criteria --family fock --param 200 --add 2 --ell-max 60",  # exit 3
    "criteria --family fock --param 0 --add 1",  # JSON, with A3_detail
    "selfcheck --tol 0",  # exit 4
    "sweep --family thermal --param-range 0:3:0.05 --format json",
)
TIMEOUT = 600  # seconds per call


def argv_list():
    """The benchmark's distinct argv at SEEDS, then EXTRAS."""
    argvs = [list(inv.argv) for workload in WORKLOADS for seed in SEEDS
             for inv in build(workload, seed)]
    argvs += [extra.split() for extra in EXTRAS]
    return [argv for i, argv in enumerate(argvs) if argv not in argvs[:i]]


def extract_src(ref, into):
    """The src/ of git ref, extracted under the directory into."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref, "src"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    # the "data" filter where this Python has it (3.10.12 and later)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    return Path(into) / "src"


def run(src, argv):
    """(stdout, stderr, exit code) of the CLI with src first on the path."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "photonstat", *argv],
                          cwd=src.parent, env=env, capture_output=True,
                          timeout=TIMEOUT)
    return done.stdout, done.stderr, done.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git ref to match")
    args = parser.parse_args(argv)
    argvs = argv_list()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = (ROOT / "src", extract_src(args.base, tmp))
        for cli_argv in argvs:
            here, base = (run(src, cli_argv) for src in trees)
            streams = [name for name, a, b in
                       zip(("stdout", "stderr", "exit code"), here, base)
                       if a != b]
            if streams:
                differ += 1
                print(f"DIFFER ({', '.join(streams)}): {' '.join(cli_argv)}")
    print(f"same_bytes: {len(argvs) - differ} of {len(argvs)} argv match "
          f"{args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
