"""Parametric families of elections where removing supportive ballots flips winners.

Each family builds an election, a ballot selection to remove, and the winner
sets before and after the removal. They exercise different failure shapes:

- STV_ILVB / EAR_ILVB: ballots ranking only losers decide the outcome.
- STV_IWVB / EAR_IWVB: bullet votes for one winner knock out another winner.
- STV_IWVB_STAR / EAR_IWVB_STAR: the removed ballots' winner survives, but
  the rest of the committee is replaced wholesale.
- CC_IWVB: the same shape for Chamberlin-Courant under both models.
- QPSC_LEFT / QPSC_RIGHT: a single bullet vote moves the proportionality
  quota enough to change which committees are feasible, flipping the scored
  winner both ways.

generate() returns the exact profile plus the designated removal and the
expected before/after winner sets; the `methods` field names the tabulation
rules the family is valid for. Only the two IWVB* families read size
parameters (all of a, b, c for STV_IWVB_STAR, only a for EAR_IWVB_STAR);
generate() refuses any parameter its family does not read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import PreconditionError
from .methods import ScoringVector
from .profiles import (
    BallotSelection,
    Candidate,
    Election,
    PreferenceProfile,
    selection_from_rankings,
)
from .rationals import rational


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    k: int = 2
    a: int | None = None
    b: int | None = None
    c: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PreconditionError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )


class GeneratedCase(NamedTuple):
    election: Election
    removal: BallotSelection
    winners_before: frozenset[int]
    winners_after: frozenset[int]
    methods: tuple[str, ...]
    options: dict


# defaults for the parametrized families, by k
_STAR_DEFAULTS = {2: (1000, 20, 13), 3: (1000, 20, 14), 4: (2000, 40, 31), 5: (4000, 40, 33)}
_EAR_STAR_DEFAULT_A = 1000


def _blocks(party: str, count: int, base: int) -> list[Candidate]:
    return [Candidate(base + i, f"{party}{i + 1}", party) for i in range(count)]


def _case(cands, ballots, k, title, removed, before, after, methods, options=None):
    """Assemble a case: the election of `ballots`, the removal of the
    (ranking, count) pairs `removed`, and the expected winner flip."""
    election = Election(PreferenceProfile.from_ballots(tuple(cands), ballots), k, title)
    return GeneratedCase(
        election,
        selection_from_rankings(election.profile, removed),
        frozenset(before),
        frozenset(after),
        methods,
        options or {},
    )


def _stv_ilvb(spec: GeneratorSpec) -> GeneratedCase:
    k = spec.k
    if k < 1:
        raise PreconditionError("STV_ILVB needs k >= 1")
    cands = _blocks("A", k, 0) + _blocks("B", k, k) + _blocks("C", k, 2 * k)
    ballots = []
    for i in range(k):
        a, b, c = i, k + i, 2 * k + i
        ballots += [
            ((a, b, c), 7),
            ((a, c, b), 9),
            ((b, c, a), 12),
            ((c, a, b), 13),
            ((b,), 2),
        ]
    return _case(
        cands, ballots, k, f"stv-ilvb-k{k}",
        [((k + i,), 2) for i in range(k)],
        range(k), range(2 * k, 3 * k), ("scottish", "meek"),
    )


def _ear_ilvb(spec: GeneratorSpec) -> GeneratedCase:
    k = spec.k
    if k < 1:
        raise PreconditionError("EAR_ILVB needs k >= 1")
    cands = _blocks("A", k, 0) + _blocks("B", k, k) + [Candidate(2 * k, "C", "C")]
    ballots = []
    for i in range(k):
        ballots += [((i,), 8), ((k + i, i), 10 * k)]
    ballots.append(((2 * k,), 3 * k))
    return _case(
        cands, ballots, k, f"ear-ilvb-k{k}",
        [((2 * k,), 3 * k)],
        range(k), range(k, 2 * k), ("ear",),
    )


def _stv_iwvb(spec: GeneratorSpec) -> GeneratedCase:
    k = spec.k
    if k < 2:
        raise PreconditionError("STV_IWVB needs k >= 2")
    cands = _blocks("A", k, 0) + _blocks("B", k, k)
    ballots = [
        ((0,), 14 * k - 12),
        ((0, k), 4 * k + 2),
        ((k,), 6 * k + 2),
    ]
    for i in range(1, k):
        ballots += [
            ((0, k + i), 2),
            ((k, i), 2),
            ((i,), 10 * k),
            ((k + i,), 10 * k),
        ]
    return _case(
        cands, ballots, k, f"stv-iwvb-k{k}",
        [((0,), 14 * k - 12)],
        range(k), range(k, 2 * k), ("scottish", "meek"),
    )


def _ear_iwvb(spec: GeneratorSpec) -> GeneratedCase:
    k = spec.k
    if k < 2:
        raise PreconditionError("EAR_IWVB needs k >= 2 (the construction has k-1 supported partners)")
    cands = [Candidate(0, "A", "A")] + _blocks("B", k - 1, 1) + _blocks("C", k, k)
    ballots = [((0,), 20 * k + 20)]
    for i in range(k - 1):
        ballots += [((1 + i,), 10), ((k + i, 1 + i), 20 * k)]
    ballots.append(((2 * k - 1,), 20 * k))
    return _case(
        cands, ballots, k, f"ear-iwvb-k{k}",
        [((0,), 20 * k + 20)],
        range(k), range(k, 2 * k), ("ear",),
    )


def _stv_iwvb_star(spec: GeneratorSpec) -> GeneratedCase:
    k = spec.k
    if k < 2:
        raise PreconditionError("STV_IWVB_STAR needs k >= 2")
    if spec.a is None and spec.b is None and spec.c is None:
        if k not in _STAR_DEFAULTS:
            raise PreconditionError(
                f"no default (a, b, c) stored for k={k}; pass them explicitly"
            )
        a, b, c = _STAR_DEFAULTS[k]
    else:
        if None in (spec.a, spec.b, spec.c):
            raise PreconditionError("STV_IWVB_STAR takes all of a, b, c or none")
        a, b, c = spec.a, spec.b, spec.c
    # The construction only flips when the B column sits between the two
    # surplus transfer levels: k*b/(k+1) > c > k*b/(k+2).
    if not (k * b > c * (k + 1) and c * (k + 2) > k * b):
        raise PreconditionError(
            f"(a={a}, b={b}, c={c}) outside the valid region "
            f"k*b/(k+1) > c > k*b/(k+2) for k={k}"
        )
    cands = [Candidate(0, "A", "A")] + _blocks("B", k - 1, 1) + _blocks("C", k - 1, k)
    ballots = [((0,), a)]
    for i in range(k - 1):
        ballots += [((0, 1 + i), b), ((k + i,), c)]
    # Under Meek the dynamic quota keeps falling after the B exclusions; the
    # construction holds only when c*k > b*(k-1), else a B re-crosses.
    methods = ("scottish", "meek") if c * k > b * (k - 1) else ("scottish",)
    return _case(
        cands, ballots, k, f"stv-iwvb-star-k{k}",
        [((0,), a)],
        range(k), {0, *range(k, 2 * k - 1)}, methods,
        {"a": a, "b": b, "c": c},
    )


def _ear_iwvb_star(spec: GeneratorSpec) -> GeneratedCase:
    k = spec.k
    if k < 2:
        raise PreconditionError("EAR_IWVB_STAR needs k >= 2")
    a = spec.a if spec.a is not None else _EAR_STAR_DEFAULT_A
    if a < 1:
        raise PreconditionError("EAR_IWVB_STAR needs a >= 1")
    cands = [Candidate(0, "A", "A")] + _blocks("B", k - 1, 1) + _blocks("C", k - 1, k)
    # Weight of the [A, Ci, Bi] column. After the A bullets are removed and A
    # is seated, each Ci must reach the reduced quota (g+20)/(k+1) at rank 2
    # while each Bi (rank-2 support 20) stays short of it. 10k satisfies both
    # for k >= 3 but not k=2, where quota would be 13.33 < 20; weight 50 puts
    # the k=2 quota at 23.33, above the B column, and the flip goes through.
    g = 50 if k == 2 else 10 * k
    ballots = [((0,), a)]
    for i in range(k - 1):
        ballots += [
            ((0, k + i, 1 + i), g),
            ((1 + i,), 10),
            ((k + i, 1 + i), 10),
        ]
    return _case(
        cands, ballots, k, f"ear-iwvb-star-k{k}",
        [((0,), a)],
        range(k), {0, *range(k, 2 * k - 1)}, ("ear",),
        {"a": a},
    )


def _cc_iwvb(spec: GeneratorSpec) -> GeneratedCase:
    k = spec.k
    if k < 2:
        raise PreconditionError("CC_IWVB needs k >= 2")
    cands = _blocks("A", k, 0) + _blocks("B", k, k)
    ballots = [
        ((0,), 3),
        ((0, k), 1),
        ((k, 0), 2),
        ((0, k + 1), 1),
        ((k + 1, 0), 2),
    ]
    for i in range(1, k - 1):
        ballots += [
            ((i, k + i), 2),
            ((k + i, i), 2),
            ((i, k + i + 1), 2),
            ((k + i + 1, i), 2),
        ]
    ballots += [
        ((k - 1, 2 * k - 1), 2),
        ((2 * k - 1, k - 1), 2),
        ((k - 1, k), 2),
        ((k, k - 1), 2),
    ]
    return _case(
        cands, ballots, k, f"cc-iwvb-k{k}",
        [((0,), 3)],
        range(k), range(k, 2 * k), ("cc-om", "cc-pm"),
    )


# the four single-candidate parties of both fixed k=2 QPSC constructions
_ABCD = tuple(Candidate(i, name, name) for i, name in enumerate("ABCD"))


def _qpsc_left(spec: GeneratorSpec) -> GeneratedCase:
    if spec.k != 2:
        raise PreconditionError("QPSC_LEFT is a fixed k=2 construction")
    ballots = [((0,), 333), ((1,), 1), ((2, 3), 333), ((3, 2), 332)]
    sv = ScoringVector((rational(1), rational(1, 100)))
    return _case(
        _ABCD, ballots, 2, "qpsc-left",
        [((1,), 1)],
        {2, 3}, {0, 2}, ("qpsc",),
        {"sv": sv, "q_mode": "droop"},
    )


def _qpsc_right(spec: GeneratorSpec) -> GeneratedCase:
    if spec.k != 2:
        raise PreconditionError("QPSC_RIGHT is a fixed k=2 construction")
    ballots = [((0,), 1), ((2, 3), 666), ((1,), 332)]
    sv = ScoringVector((rational(1), rational(1, 1000)))
    return _case(
        _ABCD, ballots, 2, "qpsc-right",
        [((0,), 1)],
        {1, 2}, {2, 3}, ("qpsc",),
        {"sv": sv, "q_mode": "droop"},
    )


# family -> (builder, the size parameters among a, b, c that it reads)
_FAMILY_TABLE = {
    "STV_ILVB": (_stv_ilvb, ()),
    "EAR_ILVB": (_ear_ilvb, ()),
    "STV_IWVB": (_stv_iwvb, ()),
    "EAR_IWVB": (_ear_iwvb, ()),
    "STV_IWVB_STAR": (_stv_iwvb_star, ("a", "b", "c")),
    "EAR_IWVB_STAR": (_ear_iwvb_star, ("a",)),
    "CC_IWVB": (_cc_iwvb, ()),
    "QPSC_LEFT": (_qpsc_left, ()),
    "QPSC_RIGHT": (_qpsc_right, ()),
}
FAMILIES = tuple(_FAMILY_TABLE)


def generate(spec: GeneratorSpec) -> GeneratedCase:
    """Build the family's election, removal selection, and expected winner flip.

    Raises PreconditionError for a size parameter the family does not read."""
    build, reads = _FAMILY_TABLE[spec.family]
    for name in ("a", "b", "c"):
        value = getattr(spec, name)
        if value is not None and name not in reads:
            raise PreconditionError(
                f"{spec.family} does not read {name} (got {name}={value}); "
                f"it reads {', '.join(reads) or 'no size parameter'}"
            )
    return build(spec)
