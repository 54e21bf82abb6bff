"""Proportionality analysis built on solid coalitions.

A ballot is solidly committed to a candidate set S when its first |S|
rankings are exactly S (in any order). Every such prefix set, with its total
committed ballot count, is a solid coalition. Given a quota q, a coalition
of size at least j*q is entitled to j of its candidates on the committee
(capped by the coalition's own size and by k); a committee meeting every
entitlement is PSC-compatible at q.

The module provides the coalition scan, constraint construction, committee
filtering and enumeration, a committee scoring rule restricted to compatible
committees, and a Hare-quota audit for tabulation results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import PreconditionError
from .methods import (
    ScoringVector,
    TabulationResult,
    WinnerSet,
    _one_round,
    committees,
    droop_quota,
    first_best_committee,
    hare_quota,
    positional_scores,
)
from .profiles import Election, PreferenceProfile
from .rationals import ZERO, floor_rational, rational


@dataclass(frozen=True)
class SolidCoalition:
    supported_set: frozenset[int]
    size: int

    def __post_init__(self):
        if not self.supported_set:
            raise PreconditionError("a solid coalition must support someone")
        if self.size < 1:
            raise PreconditionError("a solid coalition needs at least one ballot")


class Constraint(NamedTuple):
    supported_set: frozenset[int]
    size: int
    required: int


def solid_coalitions(profile: PreferenceProfile) -> list[SolidCoalition]:
    """Every ballot-prefix candidate set with its solidly committed ballot count.

    Sets that are no ballot's prefix have zero support and are omitted; they
    can never impose a constraint.
    """
    sizes: dict[frozenset[int], int] = {}
    for bt in profile.ballots:
        for length in range(1, len(bt.ranking) + 1):
            s = frozenset(bt.ranking[:length])
            sizes[s] = sizes.get(s, 0) + bt.multiplicity
    return [
        SolidCoalition(s, n)
        for s, n in sorted(sizes.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    ]


def psc_constraints(
    profile: PreferenceProfile, k: int, q
) -> tuple[Constraint, ...]:
    """Seat entitlements at quota q: a coalition of size >= j*q is owed j seats.

    The entitlement is capped by the coalition's own candidate count and by
    k; coalitions owed nothing are dropped.
    """
    if not q > ZERO:
        raise PreconditionError(f"quota must be positive, got {q}")
    constraints = []
    for coalition in solid_coalitions(profile):
        j = floor_rational(rational(coalition.size) / q)
        required = min(j, len(coalition.supported_set), k)
        if required > 0:
            constraints.append(
                Constraint(coalition.supported_set, coalition.size, required)
            )
    return tuple(constraints)


def is_psc_committee(
    committee: Iterable[int], constraints: tuple[Constraint, ...]
) -> bool:
    """True iff the committee meets every constraint's seat entitlement.

    The committee is expected to have exactly the k the constraints were
    built for; the predicate itself only tests the intersections.
    """
    members = frozenset(committee)
    return all(
        len(members & c.supported_set) >= c.required for c in constraints
    )


def enumerate_psc_committees(election: Election, q) -> list[tuple[int, ...]]:
    """All size-k committees compatible with q-PSC, in lexicographic order."""
    enumeration = committees(election.profile.m, election.k)
    constraints = psc_constraints(election.profile, election.k, q)
    return [c for c in enumeration if is_psc_committee(c, constraints)]


def qpsc_scoring_rule(election: Election, q, sv: ScoringVector) -> WinnerSet:
    """The best-scoring PSC-compatible committee.

    Each committee scores the sum of its members' positional scores (a
    candidate unranked by a ballot contributes nothing for it). Committees
    violating a q-PSC constraint are excluded before scoring. Score ties
    keep the lexicographically first committee and set the tie flag.
    """
    scores = positional_scores(election.profile, sv)
    compatible = enumerate_psc_committees(election, q)
    return best_compatible(election, q, compatible, scores)


def best_compatible(election: Election, q, compatible, scores) -> WinnerSet:
    """qpsc_scoring_rule from the compatible committees and the candidates'
    positional scores."""
    if not compatible:
        raise PreconditionError(
            f"no committee of size {election.k} is compatible with q={q}"
        )
    totals = [sum((scores[c] for c in committee), ZERO) for committee in compatible]
    return first_best_committee(compatible, totals)


# The quota of each q_mode as an exact rational, from V ballots and k seats.
QUOTAS = {"droop": lambda v, k: rational(droop_quota(v, k)), "hare": hare_quota}


def qpsc_method(sv: ScoringVector, q_mode: str = "droop"):
    """Package the scoring rule as a tabulation callable for criterion checks.

    The quota is recomputed from each election it is applied to: "droop"
    uses floor(V/(k+1))+1, "hare" uses V/k exactly. The returned callable
    carries method_tag "qpsc" and produces a single-round log holding the
    per-candidate positional scores and electing the winners.
    """
    if q_mode not in QUOTAS:
        raise PreconditionError(f"q_mode must be 'droop' or 'hare', got {q_mode!r}")

    def run(election: Election) -> TabulationResult:
        q = QUOTAS[q_mode](election.profile.total_ballots, election.k)
        scores = positional_scores(election.profile, sv)
        compatible = enumerate_psc_committees(election, q)
        winners = best_compatible(election, q, compatible, scores)
        return _one_round("qpsc", winners, scores, q, notes=(f"quota mode: {q_mode}",))

    run.method_tag = "qpsc"
    return run


def audit_hare_psc(election: Election, winners: WinnerSet) -> list[Constraint]:
    """Constraints at the Hare quota V/k that the winner set fails. Empty is a pass."""
    q = hare_quota(election.profile.total_ballots, election.k)
    members = winners.members
    return [
        c
        for c in psc_constraints(election.profile, election.k, q)
        if len(members & c.supported_set) < c.required
    ]


def constraint_to_json(constraint: Constraint) -> dict:
    return {
        "S": sorted(constraint.supported_set),
        "size": constraint.size,
        "required": constraint.required,
    }
