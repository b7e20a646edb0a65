"""Seeded workload definitions.

A workload is one pass of `python -m photonstat ...` invocations.  The seed
only chooses the `--param` lists; the CLI never sees it.  sweep-fock runs
every n in 0..FOCK_N_MAX in a seeded order, so which rows fail the oracle
(a known defect, see oracle_check.py) is the same for every seed.  Every invocation
carries the facts the output check needs (family, modification, ell_max,
parameters), so the check never re-parses the argv.
"""

import random
from dataclasses import dataclass

WORKLOADS = {
    "sweep-continuous": (
        "coherent --subtract 2, thermal --add 2, squeezed --add 1 sweeps: "
        "cutoff search over Poisson, geometric and even-only tails does "
        "most of the work"),
    "sweep-fock": (
        "Fock sweeps over every n in 0..200 with --add 6 / --subtract 6 at "
        "--ell-max 6: no cutoff search, so moment algebra and criteria "
        "dominate"),
    "selfcheck": (
        "repeated photonstat selfcheck: many ladder builds per state plus "
        "the brute-force oracle; interpreter start is most of each call"),
}

# (family, modification flag, count, lowest param, highest param)
CONTINUOUS_CASES = (
    ("coherent", "subtract", 2, 0.05, 8.0),
    ("thermal", "add", 2, 0.05, 3.0),
    ("squeezed", "add", 1, 0.05, 1.2),
)
CONTINUOUS_ROWS = 40
FOCK_N_MAX = 200
FOCK_COUNT = 6
FOCK_ELL_MAX = 6
DEFAULT_ELL_MAX = 3


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv and, for sweeps, the expected rows."""

    argv: tuple
    family: str = ""
    kind: str = ""          # "add" or "subtract"; "" for selfcheck
    count: int = 0
    ell_max: int = DEFAULT_ELL_MAX
    params: tuple = ()

    @property
    def is_sweep(self):
        return self.argv[0] == "sweep"


def _sweep(family, kind, count, params, ell_max=DEFAULT_ELL_MAX):
    argv = ["sweep", "--family", family, f"--{kind}", str(count)]
    if ell_max != DEFAULT_ELL_MAX:
        argv += ["--ell-max", str(ell_max)]
    for p in params:
        argv += ["--param", repr(p)]
    return Invocation(tuple(argv), family, kind, count, ell_max, tuple(params))


def _stratified(rng, lo, hi, rows):
    # one uniform draw per equal-width stratum keeps the cost of a pass
    # (which grows with the parameter) nearly the same for every seed
    width = (hi - lo) / rows
    return [round(lo + (i + rng.random()) * width, 6) for i in range(rows)]


def build(workload, seed, rows=None):
    """The invocations of one pass of `workload` for `seed`.

    `rows` overrides the number of sweep rows per invocation (the
    self-test uses a tiny value); selfcheck ignores it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    if workload == "sweep-continuous":
        rows = rows or CONTINUOUS_ROWS
        return [_sweep(family, kind, count, _stratified(rng, lo, hi, rows))
                for family, kind, count, lo, hi in CONTINUOUS_CASES]
    if workload == "sweep-fock":
        rows = min(rows or FOCK_N_MAX + 1, FOCK_N_MAX + 1)
        return [_sweep("fock", kind, FOCK_COUNT,
                       rng.sample(range(FOCK_N_MAX + 1), rows), FOCK_ELL_MAX)
                for kind in ("add", "subtract")]
    return [Invocation(("selfcheck",))]
