"""Multiwinner ranked-ballot tabulation and ballot-removal fairness audits.

Everything computes in exact rational arithmetic. The public surface:

- profiles: candidates, ballot types, elections, ballot selections.
- formats: BLT and CSV reading/writing.
- methods: the five voting rules plus positional scoring helpers.
- criteria: removal-violation checks, heuristic searches, the exhaustive
  small-case oracle, and party-swap searches.
- psc: solid coalitions, quota constraints, committee enumeration, the
  constrained scoring rule, and the Hare-quota audit.
- worstcase: parameterized generators for adversarial elections.
- cli: the ``blocaudit`` command.
"""

from .criteria import (
    CRITERIA,
    SearchParams,
    ViolationRecord,
    check_ilvb,
    check_iwvb,
    check_iwvb_star,
    oracle_ilvb,
    record_to_json,
    search_ilvb,
    search_iwvb,
    search_party_swaps,
    verify_record,
)
from .errors import (
    BlocauditError,
    ComputationError,
    EnumerationGuardError,
    InputError,
    MeekNonConvergenceError,
    OracleBudgetError,
    ParseError,
    PreconditionError,
)
from .formats import load_election, parse_blt, parse_csv, serialize_blt
from .methods import (
    METHOD_TAGS,
    RoundLog,
    ScoringVector,
    TabulationResult,
    WinnerSet,
    borda_vector,
    cc,
    cc_score,
    droop_quota,
    ear,
    exact_droop_quota,
    hare_quota,
    meek_stv,
    plurality_vector,
    positional_committee,
    positional_scores,
    result_to_json,
    scottish_stv,
    tabulate,
)
from .profiles import (
    BallotSelection,
    BallotType,
    Candidate,
    Election,
    PreferenceProfile,
    ballots_ranking_only,
    fraction_of,
    make_election,
    remove_ballots,
    selection_ballots,
    selection_from_rankings,
)
from .psc import (
    SolidCoalition,
    audit_hare_psc,
    enumerate_psc_committees,
    is_psc_committee,
    psc_constraints,
    qpsc_method,
    qpsc_scoring_rule,
    solid_coalitions,
)
from .rationals import decimal_string, parse_rational, rational
from .worstcase import FAMILIES, GeneratedCase, GeneratorSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BallotSelection",
    "BallotType",
    "BlocauditError",
    "CRITERIA",
    "Candidate",
    "ComputationError",
    "Election",
    "EnumerationGuardError",
    "FAMILIES",
    "GeneratedCase",
    "GeneratorSpec",
    "InputError",
    "METHOD_TAGS",
    "MeekNonConvergenceError",
    "OracleBudgetError",
    "ParseError",
    "PreconditionError",
    "PreferenceProfile",
    "RoundLog",
    "ScoringVector",
    "SearchParams",
    "SolidCoalition",
    "TabulationResult",
    "ViolationRecord",
    "WinnerSet",
    "audit_hare_psc",
    "ballots_ranking_only",
    "borda_vector",
    "cc",
    "cc_score",
    "check_ilvb",
    "check_iwvb",
    "check_iwvb_star",
    "decimal_string",
    "droop_quota",
    "ear",
    "enumerate_psc_committees",
    "exact_droop_quota",
    "fraction_of",
    "generate",
    "hare_quota",
    "is_psc_committee",
    "load_election",
    "make_election",
    "meek_stv",
    "oracle_ilvb",
    "parse_blt",
    "parse_csv",
    "parse_rational",
    "plurality_vector",
    "positional_committee",
    "positional_scores",
    "psc_constraints",
    "qpsc_method",
    "qpsc_scoring_rule",
    "rational",
    "record_to_json",
    "remove_ballots",
    "result_to_json",
    "scottish_stv",
    "search_ilvb",
    "search_iwvb",
    "search_party_swaps",
    "selection_ballots",
    "selection_from_rankings",
    "serialize_blt",
    "solid_coalitions",
    "tabulate",
    "verify_record",
]
