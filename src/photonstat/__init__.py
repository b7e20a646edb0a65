"""Higher-order nonclassicality criteria for photon-subtracted and
photon-added states, computed from normalization-constant ladders and
verified against a brute-force oracle on truncated number distributions."""

__version__ = "0.1.0"

from .exceptions import (
    AccuracyError,
    PhotonStatError,
    UndefinedStateError,
)
from .states import (
    DEFAULT_POLICY,
    FAMILIES,
    CutoffPolicy,
    NumberDistribution,
    build_state,
    choose_cutoff,
)
from .moments import (
    ModKind,
    MomentLadder,
    StateModification,
    modified_moment_sequence,
    normal_ladder,
)
from .criteria import (
    CriteriaReport,
    DegenerateA3,
    agarwal_tara,
    criteria_from_moments,
    evaluate_all,
    lee_dh,
    mandel_q,
    mu_from_m,
    poisson_central_moment,
    q_ell_central,
    q_ell_normal,
)

__all__ = [
    "AccuracyError",
    "CriteriaReport",
    "CutoffPolicy",
    "DEFAULT_POLICY",
    "DEFAULT_SUITE_STATES",
    "DegenerateA3",
    "EquivalenceCell",
    "EquivalenceReport",
    "FAMILIES",
    "ModKind",
    "MomentLadder",
    "NumberDistribution",
    "OracleResult",
    "PhotonStatError",
    "StateModification",
    "UndefinedStateError",
    "agarwal_tara",
    "build_state",
    "choose_cutoff",
    "criteria_from_moments",
    "direct_moments",
    "direct_power_moments",
    "equivalence_suite",
    "evaluate_all",
    "lee_dh",
    "mandel_q",
    "modified_moment_sequence",
    "mu_from_m",
    "normal_ladder",
    "oracle_add",
    "oracle_subtract",
    "poisson_central_moment",
    "q_ell_central",
    "q_ell_normal",
]


def __getattr__(name):
    # Only names not bound above get here: the public ones are the oracle's,
    # loaded on first use (PEP 562) since only the self-check runs it.  They
    # are looked up on every access, never cached in this module.
    if name in __all__:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
