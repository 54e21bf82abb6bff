"""The five multiwinner voting rules, in exact rational arithmetic.

Every tabulation returns a TabulationResult: a WinnerSet plus a RoundLog
holding per-round exact vote totals and the events that produced them.

Tie handling: every invocation of the deterministic tie-break rule (lowest
candidate id / lexicographically smallest committee) is recorded as a
TieEvent in the log. WinnerSet.tie_flag is raised only when some recorded
tie actually separated candidates into different final fates (one elected,
another not). A tie whose participants all won, or all lost, is bookkeeping
order and does not taint the outcome; it stays visible in the log either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    EnumerationGuardError,
    MeekNonConvergenceError,
    PreconditionError,
)
from .profiles import BallotType, Election, PreferenceProfile
from .rationals import ONE, ZERO, decimal_string, rational

HOPEFUL = "hopeful"
ELECTED = "elected"
ELIMINATED = "eliminated"

CC_MODELS = {"cc-om": "om", "cc-pm": "pm"}  # Chamberlin-Courant tag -> model
# The rules audits run; positional scoring needs a caller's vector.
AUDIT_METHODS = ("scottish", "meek", "ear", *CC_MODELS)
METHOD_TAGS = (*AUDIT_METHODS, "positional")

MAX_ENUM_CANDIDATES = 20

MEEK_KEEP_DENOMINATOR = 10**18
DEFAULT_MEEK_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class WinnerSet:
    members: frozenset[int]
    tie_flag: bool = False


@dataclass(frozen=True)
class TieEvent:
    round: int
    kind: str  # "elimination" | "surplus_order" | "election" | "committee"
    tied: tuple[int, ...]
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class RoundEvent:
    kind: str  # "elected" | "eliminated" | "surplus"
    candidate: int


@dataclass
class Round:
    number: int
    totals: dict[int, object]
    quota: object | None
    exhausted: object
    events: list[RoundEvent] = field(default_factory=list)
    threshold: int | None = None  # EAR rank threshold in force
    keep_factors: dict[int, object] | None = None  # Meek snapshot


@dataclass
class RoundLog:
    method: str
    quota: object | None  # initial quota (Meek/EAR refine per round)
    rounds: list[Round]
    tie_events: list[TieEvent]
    notes: tuple[str, ...] = ()


class TabulationResult(NamedTuple):
    winners: WinnerSet
    log: RoundLog


def _fate_tie_flag(tie_events: Iterable[TieEvent], winners: frozenset[int]) -> bool:
    """True when any tie-break separated candidates into different final fates."""
    for event in tie_events:
        fates = {c in winners for c in event.tied}
        if len(fates) > 1:
            return True
    return False


def droop_quota(total_ballots: int, k: int) -> int:
    """The integer quota floor(V/(k+1)) + 1."""
    return total_ballots // (k + 1) + 1


def exact_droop_quota(total_ballots: int, k: int):
    """The exact quota V/(k+1)."""
    return rational(total_ballots, k + 1)


def hare_quota(total_ballots: int, k: int):
    """The exact quota V/k."""
    return rational(total_ballots, k)


def _elect_crossers(
    reached, totals, status, elected: list[int], k: int,
    rnd: Round, tie_events: list[TieEvent],
) -> list[int]:
    """Elect the hopefuls c with reached(c), highest total first, while seats remain.

    totals maps each candidate to a total in whatever ordered unit the count
    keeps. A tie on the last open seat's total goes to the lower id and is
    recorded as an "election" tie. Returns the candidates elected, in order.
    """
    open_seats = k - len(elected)
    crossers = sorted(
        (c for c in status if status[c] == HOPEFUL and reached(c)),
        key=lambda c: (-totals[c], c),
    )
    if len(crossers) > open_seats:
        cutoff_value = totals[crossers[open_seats - 1]]
        if totals[crossers[open_seats]] == cutoff_value:
            tied = tuple(c for c in crossers if totals[c] == cutoff_value)
            chosen = tuple(c for c in crossers[:open_seats] if totals[c] == cutoff_value)
            tie_events.append(TieEvent(rnd.number, "election", tied, chosen))
        crossers = crossers[:open_seats]
    for c in crossers:
        status[c] = ELECTED
        elected.append(c)
        rnd.events.append(RoundEvent("elected", c))
    return crossers


def _eliminate_lowest(totals, status, rnd: Round, tie_events: list[TieEvent]) -> int:
    """Eliminate the hopeful with the lowest total and return them.

    totals is as for _elect_crossers. A tie goes to the lower id and is
    recorded as an "elimination" tie.
    """
    hopefuls = [c for c in status if status[c] == HOPEFUL]
    low_value = min(totals[c] for c in hopefuls)
    tied = sorted(c for c in hopefuls if totals[c] == low_value)
    if len(tied) > 1:
        tie_events.append(TieEvent(rnd.number, "elimination", tuple(tied), (tied[0],)))
    out = tied[0]
    status[out] = ELIMINATED
    rnd.events.append(RoundEvent("eliminated", out))
    return out


# ---------------------------------------------------------------------------
# Scottish STV


def scottish_stv(election: Election) -> TabulationResult:
    """Fractional-transfer STV with a fixed integer quota.

    One transfer action per round: distribute the largest pending surplus at
    value surplus/total per ballot, or eliminate the lowest hopeful at current
    values. Candidates at or above quota are elected at the top of each round
    and receive no further transfers; a distributed winner retains exactly the
    quota. Rounds snapshot totals before that round's action, matching the
    published votes-by-round layout.
    """
    profile = election.profile
    k = election.k
    quota = droop_quota(profile.total_ballots, k)

    ids = [c.id for c in profile.candidates]
    status = {cid: HOPEFUL for cid in ids}
    # parcels: (ranking, position of holder in ranking, ballot count, per-ballot value)
    piles: dict[int, list[tuple[tuple[int, ...], int, int, object]]] = {
        cid: [] for cid in ids
    }
    totals = {cid: ZERO for cid in ids}
    for bt in profile.ballots:
        first = bt.ranking[0]
        piles[first].append((bt.ranking, 0, bt.multiplicity, ONE))
        totals[first] += bt.multiplicity

    exhausted = ZERO
    elected: list[int] = []
    pending_surplus: list[int] = []
    rounds: list[Round] = []
    tie_events: list[TieEvent] = []

    def next_usable(ranking: tuple[int, ...], pos: int) -> int | None:
        for idx in range(pos + 1, len(ranking)):
            if status[ranking[idx]] == HOPEFUL:
                return idx
        return None

    def move_pile(cid: int, ratio) -> None:
        nonlocal exhausted
        for ranking, pos, count, value in piles[cid]:
            portion = value * ratio
            if portion == 0:
                continue
            idx = next_usable(ranking, pos)
            if idx is None:
                exhausted += count * portion
            else:
                target = ranking[idx]
                piles[target].append((ranking, idx, count, portion))
                totals[target] += count * portion
        piles[cid] = []

    number = 0
    while True:
        number += 1
        rnd = Round(number, dict(totals), quota, exhausted)
        rounds.append(rnd)

        pending_surplus += _elect_crossers(
            lambda c: totals[c] >= quota, totals, status, elected, k, rnd, tie_events
        )
        if len(elected) == k:
            break

        hopefuls = [c for c in ids if status[c] == HOPEFUL]
        if len(hopefuls) == k - len(elected):
            for c in sorted(hopefuls):
                status[c] = ELECTED
                elected.append(c)
                rnd.events.append(RoundEvent("elected", c))
            break

        if pending_surplus:
            pending_surplus.sort(key=lambda c: (-(totals[c] - quota), c))
            top_surplus = totals[pending_surplus[0]] - quota
            tied = [c for c in pending_surplus if totals[c] - quota == top_surplus]
            if len(tied) > 1:
                tie_events.append(
                    TieEvent(number, "surplus_order", tuple(tied), (tied[0],))
                )
            c = pending_surplus.pop(0)
            surplus = totals[c] - quota
            if surplus > 0:
                move_pile(c, surplus / totals[c])
                totals[c] = rational(quota)
            rnd.events.append(RoundEvent("surplus", c))
        else:
            c = _eliminate_lowest(totals, status, rnd, tie_events)
            move_pile(c, ONE)
            totals[c] = ZERO

    members = frozenset(elected)
    winners = WinnerSet(members, _fate_tie_flag(tie_events, members))
    return TabulationResult(winners, RoundLog("scottish", quota, rounds, tie_events))


# ---------------------------------------------------------------------------
# Meek STV


def meek_stv(
    election: Election,
    tolerance=None,
    max_iterations: int = DEFAULT_MEEK_MAX_ITERATIONS,
) -> TabulationResult:
    """Keep-factor STV with a dynamic quota.

    Each ballot's weight flows down its ranking; candidate c retains keep[c]
    of whatever reaches them. The quota (V - exhausted)/(k+1) is recomputed
    every iteration; elected candidates' keep factors are rescaled by
    quota/votes until every elected total sits within tolerance (an exact
    rational, default 1e-9) of quota. When no progress is possible the
    lowest hopeful is excluded. max_iterations caps the keep-factor
    iterations of the whole count, summed over every stage rather than per
    stage; passing it raises MeekNonConvergenceError.

    The count runs in exact integer fixed point, after Hill, Wichmann and
    Woodall, "Algorithm 123", Computer Journal 30(3), 1987. A keep factor
    is an integer K <= D = MEEK_KEEP_DENOMINATOR standing for K/D; each
    update rounds keep*quota/votes down to a multiple of 1/D, far below the
    default tolerance. With L the longest ranking, a ballot type of
    multiplicity n starts with weight n*D**L, so totals and exhausted weight
    are integers over D**L. A candidate with keep K takes w*K // D, and the
    division is exact: each earlier position with 0 < K < D multiplied w by
    (D-K)/D, so before the j-th such position (j = 0, 1, ..., at most L-1)
    w is still a multiple of D**(L-j) and D divides w*K. A position with
    K = D takes all of w. Values become rationals only to fill each Round,
    so the log holds exactly the totals, quotas, exhausted weight and keep
    factors of the same count done in rationals.
    """
    profile = election.profile
    k = election.k
    if tolerance is None:
        tolerance = rational(1, 10**9)
    total = profile.total_ballots
    D = MEEK_KEEP_DENOMINATOR
    scale = D ** max(len(bt.ranking) for bt in profile.ballots)
    full = total * scale
    # quota = (full - exhausted) / quota_den = quota_num / quota_den, so a
    # total T reaches it when T*(k+1) >= quota_num; the tolerance is scaled
    # to the same unit 1/quota_den.
    quota_den = (k + 1) * scale
    tolerance_scaled = tolerance * quota_den

    ids = [c.id for c in profile.candidates]
    status = {cid: HOPEFUL for cid in ids}
    keep = [D] * len(ids)
    keep_exact = [ONE] * len(ids)  # keep[c] / D, rebuilt only when keep[c] moves
    ballots = [(bt.ranking, bt.multiplicity * scale) for bt in profile.ballots]

    def distribute() -> tuple[list[int], int]:
        totals = [0] * len(ids)
        exhausted = 0
        for ranking, w in ballots:
            for cid in ranking:
                kf = keep[cid]
                if kf == D:
                    totals[cid] += w
                    w = 0
                    break
                if kf:
                    take = w * kf // D
                    totals[cid] += take
                    w -= take
            exhausted += w
        return totals, exhausted

    def exact(value: int):
        return rational(value, scale) if value else ZERO

    def snapshot(totals: list[int], exhausted: int) -> Round:
        return Round(
            len(rounds) + 1,
            {cid: exact(totals[cid]) for cid in ids},
            rational(full - exhausted, quota_den),
            exact(exhausted),
            keep_factors=dict(zip(ids, keep_exact)),
        )

    elected: list[int] = []
    rounds: list[Round] = []
    tie_events: list[TieEvent] = []
    iteration = 0
    initial_quota = exact_droop_quota(total, k)

    while len(elected) < k:
        hopefuls = [c for c in ids if status[c] == HOPEFUL]
        open_seats = k - len(elected)
        if len(hopefuls) == open_seats:
            totals, exhausted = distribute()
            rnd = snapshot(totals, exhausted)
            for c in sorted(hopefuls):
                status[c] = ELECTED
                elected.append(c)
                rnd.events.append(RoundEvent("elected", c))
            rounds.append(rnd)
            break

        # Converge keep factors, electing crossers as they appear.
        while True:
            iteration += 1
            if iteration > max_iterations:
                raise MeekNonConvergenceError(max_iterations)
            totals, exhausted = distribute()
            quota_num = full - exhausted
            rnd = snapshot(totals, exhausted)
            rounds.append(rnd)

            crossers = _elect_crossers(
                lambda c: totals[c] * (k + 1) >= quota_num,
                totals, status, elected, k, rnd, tie_events,
            )
            if len(elected) == k:
                break

            converged = not crossers and all(
                abs(totals[c] * (k + 1) - quota_num) <= tolerance_scaled
                for c in elected
            )
            if converged:
                out = _eliminate_lowest(totals, status, rnd, tie_events)
                keep[out] = 0
                keep_exact[out] = ZERO
                break

            for c in elected:
                if totals[c] > 0:
                    # floor(D * keep*quota/votes), capped at 1
                    scaled = min(keep[c] * quota_num // ((k + 1) * totals[c]), D)
                    if scaled != keep[c]:
                        keep[c] = scaled
                        keep_exact[c] = ONE if scaled == D else rational(scaled, D)

    members = frozenset(elected)
    winners = WinnerSet(members, _fate_tie_flag(tie_events, members))
    return TabulationResult(
        winners, RoundLog("meek", initial_quota, rounds, tie_events)
    )


# ---------------------------------------------------------------------------
# Expanding Approvals Rule


def ear(election: Election) -> TabulationResult:
    """Expanding approvals with the exact quota V/(k+1).

    A rank threshold j starts at 1. A candidate's support is the total weight
    of ballots ranking them at position <= j. While seats remain: elect the
    unelected candidate with the largest support at or above quota, rescaling
    supporting ballots by (support - quota)/support; if nobody qualifies,
    j grows. Should j pass the longest possible ranking with seats still
    open, the remaining seats go to the candidates with greatest support in
    turn, each election zeroing its supporters' weights.

    The count is exact and adds integers. A weight class is the sequence of
    rescalings some ballot types have received; a type weighs its
    multiplicity times its class's rational factor (ONE before any
    rescaling). counts[c][cid] sums the multiplicities of class-c types
    ranking cid within their top j, so raising the threshold adds one
    position per type and an election moves its supporters' counts into
    one new class per source class. Supports are formed as sum(factor *
    count), so each Round holds exactly the rationals of a per-ballot count.
    """
    profile = election.profile
    k = election.k
    m = profile.m
    quota = exact_droop_quota(profile.total_ballots, k)

    ids = [c.id for c in profile.candidates]
    rankings = [bt.ranking for bt in profile.ballots]
    mults = [bt.multiplicity for bt in profile.ballots]
    factors = [ONE]
    cls = [0] * len(rankings)
    counts = [[0] * m]
    for ranking, n in zip(rankings, mults):
        counts[0][ranking[0]] += n
    elected: list[int] = []
    rounds: list[Round] = []
    tie_events: list[TieEvent] = []
    notes: list[str] = []

    j = 1
    while len(elected) < k:
        support = {cid: ZERO for cid in ids}
        for factor, row in zip(factors, counts):
            if factor:
                for cid, n in enumerate(row):
                    if n:
                        support[cid] += factor * n
        if j <= m:
            contenders = [
                c for c in ids if c not in elected and support[c] >= quota
            ]
            if not contenders:
                for t, ranking in enumerate(rankings):
                    if len(ranking) > j:
                        counts[cls[t]][ranking[j]] += mults[t]
                j += 1
                continue
        else:
            # Past the longest ranking, so the counts hold whole rankings.
            if not notes:
                notes.append(
                    "rank thresholds exhausted; remaining seats filled by "
                    "greatest support with supporter weights zeroed"
                )
            contenders = [c for c in ids if c not in elected]
        best_value = max(support[c] for c in contenders)
        tied = sorted(c for c in contenders if support[c] == best_value)
        if len(tied) > 1:
            tie_events.append(
                TieEvent(len(rounds) + 1, "election", tuple(tied), (tied[0],))
            )
        chosen = tied[0]
        scale = (best_value - quota) / best_value if j <= m else ZERO
        moved: dict[int, int] = {}  # source class -> its rescaled class
        for t, ranking in enumerate(rankings):
            top = ranking[:j]
            if chosen in top:
                src = cls[t]
                if src not in moved:
                    moved[src] = len(factors)
                    factors.append(factors[src] * scale)
                    counts.append([0] * m)
                cls[t] = dst = moved[src]
                for cid in top:
                    counts[src][cid] -= mults[t]
                    counts[dst][cid] += mults[t]
        rounds.append(
            Round(
                len(rounds) + 1,
                support,
                quota,
                ZERO,
                events=[RoundEvent("elected", chosen)],
                threshold=j,
            )
        )
        elected.append(chosen)

    members = frozenset(elected)
    winners = WinnerSet(members, _fate_tie_flag(tie_events, members))
    return TabulationResult(
        winners, RoundLog("ear", quota, rounds, tie_events, tuple(notes))
    )


# ---------------------------------------------------------------------------
# Chamberlin-Courant


def cc_score(profile: PreferenceProfile, committee: Iterable[int], model: str) -> int:
    """A committee's total representation score.

    Each ballot contributes m - r points, where r is the rank of its
    highest-ranked committee member. A ballot ranking t candidates, none in
    the committee, contributes m - t - 1 under the optimistic model ("om")
    and 0 under the pessimistic model ("pm").
    """
    if model not in ("om", "pm"):
        raise ValueError(f"model must be 'om' or 'pm', got {model!r}")
    members = frozenset(committee)
    if not members:
        raise ValueError("committee must be non-empty")
    m = profile.m
    score = 0
    for bt in profile.ballots:
        rank = None
        for pos, cid in enumerate(bt.ranking):
            if cid in members:
                rank = pos + 1
                break
        if rank is not None:
            score += bt.multiplicity * (m - rank)
        elif model == "om":
            score += bt.multiplicity * (m - len(bt.ranking) - 1)
    return score


def _cc_scores(
    ballots: Sequence[BallotType], m: int, k: int, model: str
) -> list[int]:
    """cc_score of every size-k committee, in itertools.combinations order.

    Scores are exact integers. cols[c][t] holds what ballot type t gives a
    committee whose best-ranked member on it is c: multiplicity * (m - 1 -
    position) when t ranks c, and otherwise the unranked score (multiplicity
    * (m - len - 1) under "om", 0 under "pm"), which is never above a
    ranked one. A committee's cc_score is then sum(map(max, *its columns)).
    Refuses m above MAX_ENUM_CANDIDATES.
    """
    if model not in ("om", "pm"):
        raise ValueError(f"model must be 'om' or 'pm', got {model!r}")
    if m > MAX_ENUM_CANDIDATES:
        raise EnumerationGuardError(
            f"committee enumeration needs m <= {MAX_ENUM_CANDIDATES} candidates, got {m}"
        )
    unranked = [
        bt.multiplicity * (m - len(bt.ranking) - 1) if model == "om" else 0
        for bt in ballots
    ]
    cols = [list(unranked) for _ in range(m)]
    for t, bt in enumerate(ballots):
        for pos, cid in enumerate(bt.ranking):
            cols[cid][t] = bt.multiplicity * (m - 1 - pos)
    if k == 1:
        return [sum(col) for col in cols]  # max() of a single int raises
    return [
        sum(map(max, *(cols[c] for c in committee)))
        for committee in itertools.combinations(range(m), k)
    ]


def _cc_argmax(scores: Sequence[int], m: int, k: int) -> WinnerSet:
    """The committee of the first best score, tie-flagged when it is not unique.

    scores are in itertools.combinations(range(m), k) order, as _cc_scores
    gives them, so the first best is the lexicographically smallest.
    """
    best = max(scores)
    first = scores.index(best)
    committees = itertools.combinations(range(m), k)
    committee = next(itertools.islice(committees, first, None))
    return WinnerSet(frozenset(committee), scores.count(best) > 1)


def cc(election: Election, model: str) -> WinnerSet:
    """Exact Chamberlin-Courant: argmax of cc_score over all size-k committees.

    Ties go to the lexicographically smallest id tuple, with the tie flag set.
    Refuses profiles with more than MAX_ENUM_CANDIDATES candidates. The
    scores come from one integer kernel (_cc_scores) and are linear in the
    ballot-type multiplicities, so a probe session (criteria.ProbeSession)
    scores a removal by difference: the base scores minus, for each removed
    type, its count times its unit row (the kernel applied to one ballot of
    that type, built the first time a probe removes it), then this argmax.
    """
    m, k = election.profile.m, election.k
    return _cc_argmax(_cc_scores(election.profile.ballots, m, k, model), m, k)


# ---------------------------------------------------------------------------
# Positional committee scoring


@dataclass(frozen=True)
class ScoringVector:
    """Non-increasing positional scores s1 >= s2 >= ... >= 0 with s1 > 0.

    Positions beyond the vector's length score zero, so a short vector is
    shorthand for one padded with zeros; unranked candidates always score
    zero from a ballot (pessimistic processing).
    """

    s: tuple

    def __post_init__(self):
        values = tuple(self.s)
        object.__setattr__(self, "s", values)
        if not values:
            raise PreconditionError("scoring vector must be non-empty")
        if values[0] <= 0:
            raise PreconditionError("first score must be positive")
        for a, b in zip(values, values[1:]):
            if b > a:
                raise PreconditionError("scores must be non-increasing")
        if values[-1] < 0:
            raise PreconditionError("scores must be non-negative")


def borda_vector(m: int) -> ScoringVector:
    """(m-1, m-2, ..., 0)."""
    return ScoringVector(tuple(rational(m - i) for i in range(1, m + 1)))


def plurality_vector(m: int) -> ScoringVector:
    """(1, 0, ..., 0)."""
    return ScoringVector((ONE,) + (ZERO,) * (m - 1))


def positional_scores(
    profile: PreferenceProfile, sv: ScoringVector
) -> dict[int, object]:
    scores = {c.id: ZERO for c in profile.candidates}
    depth = len(sv.s)
    for bt in profile.ballots:
        for pos, cid in enumerate(bt.ranking[:depth]):
            scores[cid] += bt.multiplicity * sv.s[pos]
    return scores


def positional_committee(election: Election, sv: ScoringVector) -> WinnerSet:
    """The k candidates with the highest positional scores.

    Ordered by (score desc, id asc); the tie flag is set when the seat
    boundary splits candidates with equal scores.
    """
    profile = election.profile
    k = election.k
    scores = positional_scores(profile, sv)
    order = sorted(scores, key=lambda c: (-scores[c], c))
    tie = scores[order[k - 1]] == scores[order[k]]
    return WinnerSet(frozenset(order[:k]), tie)


# ---------------------------------------------------------------------------
# Dispatcher and JSON rendering


def tabulate(
    election: Election,
    method: str,
    *,
    sv: ScoringVector | None = None,
    tolerance=None,
    max_iterations: int = DEFAULT_MEEK_MAX_ITERATIONS,
) -> TabulationResult:
    """Run one of the five rules by tag; see METHOD_TAGS.

    tolerance and max_iterations apply to Meek only (see meek_stv).
    max_iterations caps the keep-factor iterations of the whole count,
    summed over every stage, not of each stage.
    """
    if method == "scottish":
        return scottish_stv(election)
    if method == "meek":
        return meek_stv(election, tolerance=tolerance, max_iterations=max_iterations)
    if method == "ear":
        return ear(election)
    if method in CC_MODELS:
        winners = cc(election, CC_MODELS[method])
        rnd = Round(1, {}, None, ZERO)
        rnd.events = [RoundEvent("elected", c) for c in sorted(winners.members)]
        return TabulationResult(winners, RoundLog(method, None, [rnd], []))
    if method == "positional":
        if sv is None:
            sv = borda_vector(election.profile.m)
        winners = positional_committee(election, sv)
        scores = positional_scores(election.profile, sv)
        rnd = Round(1, scores, None, ZERO)
        rnd.events = [RoundEvent("elected", c) for c in sorted(winners.members)]
        return TabulationResult(winners, RoundLog("positional", None, [rnd], []))
    raise PreconditionError(
        f"unknown method {method!r}; expected one of {METHOD_TAGS}"
    )


def result_to_json(election: Election, result: TabulationResult) -> dict:
    """A JSON-ready document: winners, quota trace, and per-round decimals.

    Exact values render as decimal strings truncated toward zero at five
    places.
    """
    profile = election.profile
    winners, log = result
    doc: dict = {
        "method": log.method,
        "title": election.title,
        "seats": election.k,
        "total_ballots": profile.total_ballots,
        "candidates": [
            {"id": c.id, "name": c.name, "party": c.party}
            for c in profile.candidates
        ],
        "winners": sorted(winners.members),
        "winner_names": [
            profile.candidates[c].name for c in sorted(winners.members)
        ],
        "tie_flag": winners.tie_flag,
        "quota": None if log.quota is None else decimal_string(log.quota),
        "rounds": [],
        "tie_events": [
            {
                "round": e.round,
                "kind": e.kind,
                "tied": list(e.tied),
                "chosen": list(e.chosen),
            }
            for e in log.tie_events
        ],
    }
    if log.notes:
        doc["notes"] = list(log.notes)
    for rnd in log.rounds:
        entry: dict = {
            "number": rnd.number,
            "quota": None if rnd.quota is None else decimal_string(rnd.quota),
            "exhausted": decimal_string(rnd.exhausted),
            "totals": {
                str(cid): decimal_string(value) for cid, value in rnd.totals.items()
            },
            "events": [
                {"kind": e.kind, "candidate": e.candidate} for e in rnd.events
            ],
        }
        if rnd.threshold is not None:
            entry["threshold"] = rnd.threshold
        if rnd.keep_factors is not None:
            entry["keep_factors"] = {
                str(cid): decimal_string(value, 9)
                for cid, value in rnd.keep_factors.items()
            }
        doc["rounds"].append(entry)
    return doc
