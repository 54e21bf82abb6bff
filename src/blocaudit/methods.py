"""The five multiwinner voting rules, in exact rational arithmetic.

Every tabulation returns a TabulationResult: a WinnerSet plus a RoundLog
holding per-round exact vote totals and the events that produced them.
Scottish STV, Meek STV and EAR each have one integer count (COUNTS) over a
profile's ballot types at given multiplicities: tabulate runs it with the
round log, and a search probe (criteria.ProbeSession) runs it without one,
over the source multiplicities less the removal, so a probe builds neither
a reduced profile nor any Round, RoundEvent or RationalsOver.

Tie handling: one deterministic rule breaks every tie, lowest candidate id
first (_take_first) and the lexicographically smallest committee first
(first_best_committee). Scottish, Meek, EAR and positional log each
tie-break as a TieEvent; cc-om, cc-pm and qpsc flag a tied committee without
one. The STV and EAR counts raise WinnerSet.tie_flag only when a logged tie
separated candidates into different final fates (one elected, another not);
a tie whose participants all won, or all lost, is bookkeeping order and
stays visible in the log. Positional flags a tie at the seat boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import add, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    EnumerationGuardError,
    MeekNonConvergenceError,
    PreconditionError,
)
from .profiles import BallotSelection, BallotType, Election, PreferenceProfile
from .profiles import _validate_removal
from .rationals import (
    ONE, ZERO, RationalsOver, decimal_string, floor_rational, rational,
)

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
    kind: str  # "elimination" | "surplus_order" | "election"
    tied: tuple[int, ...]
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class RoundEvent:
    kind: str  # "elected" | "eliminated" | "surplus"
    candidate: int


@dataclass
class Round:
    """One round of a count, compared by value.

    totals and keep_factors (Meek's snapshot) map candidate ids to exact
    values; quota (None for the one-round rules) and exhausted are exact
    values. The integer counts give the two mappings as RationalsOver, so a
    per-candidate rational is built only when it is read.
    """

    number: int
    totals: Mapping[int, object]
    quota: object | None
    exhausted: object
    events: list[RoundEvent] = field(default_factory=list)
    threshold: int | None = None  # EAR rank threshold in force
    keep_factors: Mapping[int, object] | None = None  # Meek snapshot


@dataclass
class RoundLog:
    method: str
    quota: object | None  # initial quota (Meek/EAR refine per round)
    rounds: list[Round]
    tie_events: list[TieEvent]
    notes: tuple[str, ...] = ()


class TabulationResult(NamedTuple):
    winners: WinnerSet
    log: RoundLog | None  # None from a count run without its log


def _fate_tie_flag(tie_events: Iterable[TieEvent], winners: frozenset[int]) -> bool:
    """True when any tie-break separated candidates into different final fates."""
    return any(len({c in winners for c in event.tied}) > 1 for event in tie_events)


def _result(method: str, quota, elected, rounds, tie_events, notes=()):
    """The winner set, its tie flag and the round log at the end of a count.

    rounds is None when the count kept no log, and then so is the log.
    """
    members = frozenset(elected)
    winners = WinnerSet(members, _fate_tie_flag(tie_events, members))
    if rounds is None:
        return TabulationResult(winners, None)
    log = RoundLog(method, quota, rounds, tie_events, tuple(notes))
    return TabulationResult(winners, log)


def _one_round(method: str, winners, totals, quota=None, tie_events=(), notes=()):
    """The result of a one-round rule: one round electing the winners in id order."""
    events = [RoundEvent("elected", c) for c in sorted(winners.members)]
    rnd = Round(1, totals, quota, ZERO, events)
    log = RoundLog(method, quota, [rnd], list(tie_events), tuple(notes))
    return TabulationResult(winners, log)


def _take_first(
    candidates: Iterable[int], n: int, value, kind: str, round_number: int, tie_events
) -> list[int]:
    """The n >= 1 candidates of highest value(c), best first.

    This is the one tie-break rule for candidates: equal values go to the
    lower id. When the cut after n splits candidates of equal value, a
    TieEvent of this kind records them all and the ones taken.
    """
    order = sorted(candidates, key=lambda c: (-value(c), c))
    chosen = order[:n]
    if n < len(order):
        cut = value(order[n - 1])
        if value(order[n]) == cut:
            tied = tuple(c for c in order if value(c) == cut)
            taken = tuple(c for c in chosen if value(c) == cut)
            tie_events.append(TieEvent(round_number, kind, tied, taken))
    return chosen


def droop_quota(total_ballots: int, k: int) -> int:
    """The integer quota floor(V/(k+1)) + 1."""
    return total_ballots // (k + 1) + 1


def exact_droop_quota(total_ballots: int, k: int):
    """The exact quota V/(k+1)."""
    return rational(total_ballots, k + 1)


def hare_quota(total_ballots: int, k: int):
    """The exact quota V/k."""
    return rational(total_ballots, k)


# The STV counts keep their hopefuls as a set, and these three helpers
# remove a candidate from it on election or elimination. events is the
# current Round's event list, or None when the count keeps no log.


def _elect_crossers(
    totals, quota, hopefuls: set[int], elected: list[int], k: int,
    number: int, events: list[RoundEvent] | None, tie_events: list[TieEvent],
) -> list[int]:
    """Elect the hopefuls whose total reaches quota, highest first, while seats remain.

    totals maps each candidate to a total in whatever ordered unit the count
    keeps, and quota is in the same unit. A tie on the last open seat's
    total goes to the lower id and is recorded as an "election" tie of
    round number. Returns the candidates elected, in order.
    """
    crossers = [c for c in hopefuls if totals[c] >= quota]
    if not crossers:
        return crossers
    crossers = _take_first(
        crossers, k - len(elected), totals.__getitem__, "election", number,
        tie_events,
    )
    for c in crossers:
        hopefuls.remove(c)
        elected.append(c)
        if events is not None:
            events.append(RoundEvent("elected", c))
    return crossers


def _elect_remaining(
    hopefuls: set[int], elected: list[int], k: int,
    events: list[RoundEvent] | None,
) -> bool:
    """If the hopefuls exactly fill the open seats, elect them, lowest id first."""
    if len(hopefuls) != k - len(elected):
        return False
    for c in sorted(hopefuls):
        elected.append(c)
        if events is not None:
            events.append(RoundEvent("elected", c))
    hopefuls.clear()
    return True


def _eliminate_lowest(
    totals, hopefuls: set[int], number: int, events: list[RoundEvent] | None,
    tie_events: list[TieEvent],
) -> int:
    """Eliminate the hopeful with the lowest total and return them.

    totals is as for _elect_crossers. A tie goes to the lower id and is
    recorded as an "elimination" tie.
    """
    [out] = _take_first(
        hopefuls, 1, lambda c: -totals[c], "elimination", number, tie_events,
    )
    hopefuls.remove(out)
    if events is not None:
        events.append(RoundEvent("eliminated", out))
    return out


# ---------------------------------------------------------------------------
# The integer counts
#
# Scottish STV, Meek STV and EAR each have one count (_scottish_count,
# _meek_count, _ear_count), listed by tag in COUNTS. A count takes
# (profile, mults, k, log): the profile's ballot types in canonical order,
# type t standing mults[t] times, and the number of seats. tabulate runs it
# over the profile's own multiplicities with log true, which builds the
# RoundLog: each Round's quota and exhausted weight as exact rationals, and
# its per-candidate totals (and Meek's keep factors) as RationalsOver over
# the count's integers. criteria.ProbeSession runs it with log false over a
# copy of the source multiplicities less a removal; the count then builds
# no Round, RoundEvent or RationalsOver and returns a log of None. The tie
# events are kept either way, since the tie flag is read from them.
#
# Scottish and EAR keep one weight per ballot type as an integer over one
# common denominator den, which starts at 1 and is multiplied by q when a
# transfer keeps p/q (in lowest terms) of a value. Over the same den,
# Scottish keeps its totals and exhausted weight, EAR one support per
# candidate.
# Meek's totals are integers over the fixed scale D**L.
#
# Exactness: remove_ballots keeps the canonical type order and drops the
# types that reach 0, so a count that skips the types of multiplicity 0
# sees the reduced profile's types, in its order, with its counts. What a
# count reads from the profile as a whole comes from the live types alone,
# as the reduced profile's would: the ballot total V = sum(mults) behind
# Scottish's integer quota and EAR's Droop quota, and Meek's longest
# ranking L.


# ---------------------------------------------------------------------------
# Scottish STV


def _scottish_count(
    profile: PreferenceProfile, mults: Sequence[int], k: int, log: bool = False
) -> TabulationResult:
    """Scottish STV over the profile's types at multiplicities mults (see scottish_stv).

    Types of multiplicity 0 are skipped, and the integer quota is taken from
    sum(mults), the live ballots, so the count equals scottish_stv on the
    reduced profile; log builds the round log (see "The integer counts" above).
    """
    m = profile.m
    quota = droop_quota(sum(mults), k)
    ballots = profile.ballots

    hopefuls = set(range(m))
    weight = list(mults)
    piles: list[list[int]] = [[] for _ in range(m)]
    totals = [0] * m
    for t, n in enumerate(mults):
        if n:
            first = ballots[t].ranking[0]
            piles[first].append(t)
            totals[first] += n
    den = 1
    exhausted = 0

    elected: list[int] = []
    pending_surplus: list[int] = []
    rounds: list[Round] | None = [] if log else None
    tie_events: list[TieEvent] = []
    events = None

    def move_pile(cid: int, p: int, q: int) -> None:
        """Send cid's pile on at p/q of its value, after den grows by q."""
        nonlocal den, exhausted
        if q != 1:
            den *= q
            totals[:] = [total * q for total in totals]
            weight[:] = [w * q for w in weight]
            exhausted *= q
        for t in piles[cid]:
            w = weight[t] = weight[t] // q * p
            for target in ballots[t].ranking:
                if target in hopefuls:
                    totals[target] += w
                    piles[target].append(t)
                    break
            else:
                exhausted += w
        piles[cid] = []

    number = 0
    while True:
        number += 1
        if log:
            rnd = Round(
                number,
                RationalsOver(totals, den),
                quota,
                rational(exhausted, den),
            )
            rounds.append(rnd)
            events = rnd.events

        quota_scaled = quota * den
        pending_surplus += _elect_crossers(
            totals, quota_scaled, hopefuls, elected, k, number, events, tie_events
        )
        if len(elected) == k or _elect_remaining(hopefuls, elected, k, events):
            break

        if pending_surplus:
            [c] = _take_first(
                pending_surplus, 1, totals.__getitem__, "surplus_order",
                number, tie_events,
            )
            pending_surplus.remove(c)
            surplus = totals[c] - quota_scaled
            if surplus > 0:
                g = math.gcd(surplus, totals[c])
                move_pile(c, surplus // g, totals[c] // g)
                totals[c] = quota * den
            if log:
                events.append(RoundEvent("surplus", c))
        else:
            c = _eliminate_lowest(totals, hopefuls, number, events, tie_events)
            move_pile(c, 1, 1)
            totals[c] = 0

    return _result("scottish", quota, elected, rounds, tie_events)


def scottish_stv(election: Election) -> TabulationResult:
    """Fractional-transfer STV with a fixed integer quota.

    One transfer action per round: distribute the largest pending surplus at
    value surplus/total per ballot, or eliminate the lowest hopeful at current
    values. Candidates at or above quota are elected at the top of each round
    and receive no further transfers; a distributed winner retains exactly the
    quota. Rounds snapshot totals before that round's action, matching the
    published votes-by-round layout.

    The count (_scottish_count, which search probes run without the log)
    adds integers, as EAR's does. Each ballot type's weight, every total
    and the exhausted weight is an integer over one common denominator den,
    which starts at 1, a type weighing its multiplicity. A candidate's pile
    lists the ballot types they hold. A transfer at p/q (surplus/total in
    lowest terms, or 1/1 for an elimination) multiplies den, every total,
    every weight and the exhausted weight by q; each held type then weighs
    w // q * p and goes to the first hopeful it ranks, or adds its weight
    to the exhausted weight if it ranks none. That hopeful comes after the
    holder, since every candidate a type ranks before its holder is
    already elected or eliminated. Totals are compared with the quota as
    total >= quota * den.
    """
    profile = election.profile
    return _scottish_count(profile, profile.multiplicities, election.k, log=True)


# ---------------------------------------------------------------------------
# Meek STV


def _meek_count(
    profile: PreferenceProfile,
    mults: Sequence[int],
    k: int,
    log: bool = False,
    tolerance=None,
    max_iterations: int | None = None,
) -> TabulationResult:
    """Meek STV over the profile's types at multiplicities mults (see meek_stv).

    Types of multiplicity 0 are skipped, and both V = sum(mults) and the
    longest ranking L behind scale = D**L are taken from the live types, so
    the count equals meek_stv on the reduced profile, every integer
    included; log builds the round log (see "The integer counts" above).
    tolerance and max_iterations are as for meek_stv.
    """
    if tolerance is None:
        tolerance = rational(1, 10**9)
    if max_iterations is None:
        max_iterations = DEFAULT_MEEK_MAX_ITERATIONS
    if tolerance < 0:
        raise PreconditionError(f"Meek tolerance must be >= 0, got {tolerance}")
    if max_iterations < 1:
        raise PreconditionError(
            f"Meek max_iterations must be >= 1, got {max_iterations}"
        )
    live = [(bt.ranking, n) for bt, n in zip(profile.ballots, mults) if n]
    total = sum(mults)
    D = MEEK_KEEP_DENOMINATOR
    scale = D ** max(len(ranking) for ranking, _ in live)
    full = total * scale
    # quota = (full - exhausted) / quota_den = quota_num / quota_den, so a
    # total T reaches it when T*(k+1) >= quota_num; the tolerance is scaled
    # to the same unit 1/quota_den, and floored, since it bounds an integer.
    k1 = k + 1
    quota_den = k1 * scale
    tolerance_scaled = floor_rational(tolerance * quota_den)

    m = profile.m
    hopefuls = set(range(m))
    keep = [D] * m

    def group() -> tuple[list[int], list[tuple[tuple[int, ...], int, int]]]:
        """The weight of each effective path under the current keep factors.

        A path is (partials, end): the candidates with 0 < K < D in ranking
        order, then the first with K = D, or m when the rest exhausts. start
        has a slot per candidate and slot m for the exhausted weight, and
        holds the weight of every path without partials, which lands in the
        same slot at every iteration until the next regroup. The flowing
        paths follow as (partials, end, weight).
        """
        counts: dict[tuple[tuple[int, ...], int], int] = {}
        for ranking, n in live:
            partials = []
            end = m
            for cid in ranking:
                kf = keep[cid]
                if kf == D:
                    end = cid
                    break
                if kf:
                    partials.append(cid)
            path = (tuple(partials), end)
            counts[path] = counts.get(path, 0) + n
        start = [0] * (m + 1)
        flowing = []
        for (partials, end), n in counts.items():
            if partials:
                flowing.append((partials, end, n * scale))
            else:
                start[end] += n * scale
        return start, flowing

    elected: list[int] = []
    rounds: list[Round] | None = [] if log else None
    tie_events: list[TieEvent] = []
    events = None
    start, flowing = group()

    number = 0
    while len(elected) < k:
        totals = start.copy()
        for partials, end, w in flowing:
            for cid in partials:
                take = w * keep[cid] // D
                totals[cid] += take
                w -= take
            totals[end] += w
        exhausted = totals.pop()
        quota_num = full - exhausted
        number += 1
        if log:
            rnd = Round(
                number,
                RationalsOver(totals, scale),
                rational(quota_num, quota_den),
                rational(exhausted, scale),
                keep_factors=RationalsOver(keep, D),
            )
            rounds.append(rnd)
            events = rnd.events
        if len(hopefuls) == k - len(elected):
            _elect_remaining(hopefuls, elected, k, events)
            break

        # only a round that fills the seats outright is not an iteration
        if number > max_iterations:
            raise MeekNonConvergenceError(max_iterations)
        # T*(k+1) >= quota_num exactly when T >= ceil(quota_num / (k+1))
        bar = -(-quota_num // k1)
        crossed = False
        for c in hopefuls:
            if totals[c] >= bar:
                crossed = True
                break
        if crossed:
            _elect_crossers(
                totals, bar, hopefuls, elected, k, number, events, tie_events
            )
            if len(elected) == k:
                break

        converged = not crossed
        if converged:
            for c in elected:
                gap = totals[c] * k1 - quota_num
                if gap > tolerance_scaled or gap < -tolerance_scaled:
                    converged = False
                    break
        if converged:
            out = _eliminate_lowest(totals, hopefuls, number, events, tie_events)
            keep[out] = 0
            start, flowing = group()
            continue

        regroup = False
        for c in elected:
            if totals[c] > 0:
                # floor(D * keep*quota/votes), capped at 1
                kf = keep[c] * quota_num // (k1 * totals[c])
                if kf > D:
                    kf = D
                regroup |= kf == 0 or (kf == D) != (keep[c] == D)
                keep[c] = kf
        if regroup:
            start, flowing = group()

    initial_quota = exact_droop_quota(total, k) if log else None
    return _result("meek", initial_quota, elected, rounds, tie_events)


def meek_stv(
    election: Election,
    tolerance=None,
    max_iterations: int | None = None,
) -> TabulationResult:
    """Keep-factor STV with a dynamic quota.

    Each ballot's weight flows down its ranking; candidate c retains keep[c]
    of whatever reaches them. The quota (V - exhausted)/(k+1) is recomputed
    every iteration; elected candidates' keep factors are rescaled by
    quota/votes until every elected total sits within tolerance (an exact
    rational, default 1e-9) of quota. When no progress is possible the
    lowest hopeful is excluded. max_iterations caps the keep-factor
    iterations of the whole count (default DEFAULT_MEEK_MAX_ITERATIONS),
    summed over every stage rather than per stage; passing it raises
    MeekNonConvergenceError. A negative tolerance or a max_iterations below
    1 raises PreconditionError.

    The count (_meek_count, which search probes run without the log) is
    in exact integer fixed point, after Hill, Wichmann and Woodall,
    "Algorithm 123", Computer Journal 30(3), 1987. A keep factor is an
    integer K <= D = MEEK_KEEP_DENOMINATOR standing for K/D; each update
    rounds keep*quota/votes down to a multiple of 1/D, far below the
    default tolerance. With L the longest ranking, a ballot type of
    multiplicity n starts with weight n*D**L, so totals and exhausted weight
    are integers over D**L. A candidate with keep K takes w*K // D, and the
    division is exact: each earlier position with 0 < K < D multiplied w by
    (D-K)/D, so before the j-th such position (j = 0, 1, ..., at most L-1)
    w is still a multiple of D**(L-j) and D divides w*K. A position with
    K = D takes all of w.

    Where a type's weight goes depends only on its effective path: the
    partials, the candidates with 0 < K < D in ranking order, and its end,
    the first candidate with K = D, or exhaustion when it ranks none (those
    with K = 0 are skipped). Types that share a path are summed into one
    weight. A sum of multiples of D**(L-j) is still one, so the takes stay
    exact and floor(sum(w)*K/D) = sum(floor(w*K/D)): the totals and the
    exhausted weight are the same integers as type by type. The groups are
    rebuilt only when a keep factor changes class (0, partial or D), that
    is on an elimination or an update that moves K to or from D or to 0.
    Between two regroups a path without partials sends all its weight to
    its end every iteration, so those weights are summed once per regroup
    into start totals, with one more slot for the exhausted weight. Each
    iteration copies them and walks only the flowing paths (partials, end,
    weight): each partial takes w*K // D of what is left, and the remainder
    goes to the end's slot. Integer addition in another order gives the
    same integers.
    """
    profile = election.profile
    return _meek_count(
        profile, profile.multiplicities, election.k, log=True,
        tolerance=tolerance, max_iterations=max_iterations,
    )


# ---------------------------------------------------------------------------
# Expanding Approvals Rule


def _ear_count(
    profile: PreferenceProfile, mults: Sequence[int], k: int, log: bool = False
) -> TabulationResult:
    """EAR over the profile's types at multiplicities mults (see ear).

    Types of multiplicity 0 are skipped, and the Droop quota is taken from
    sum(mults), the live ballots, so the count equals ear on the reduced
    profile; log builds the round log (see "The integer counts" above).

    The steps read the profile's cached indexes rather than scan every
    type: raising the threshold past depth j touches only the types in
    profile.ranked_at[j], and an election touches only the types in
    profile.ranks_of[chosen] that rank the chosen within the threshold.
    """
    m = profile.m
    quota = exact_droop_quota(sum(mults), k)
    qn, qd = int(quota.numerator), int(quota.denominator)

    ballots = profile.ballots
    ranked_at = profile.ranked_at
    ranks_of = profile.ranks_of
    weight = list(mults)
    support = [0] * m
    for t, cid in ranked_at[0]:
        support[cid] += weight[t]
    den = 1
    elected: list[int] = []
    rounds: list[Round] | None = [] if log else None
    tie_events: list[TieEvent] = []
    notes: list[str] = []

    j = 1
    while len(elected) < k:
        if j <= m:
            contenders = [
                c for c in range(m)
                if c not in elected and support[c] * qd >= qn * den
            ]
            if not contenders:
                for t, cid in (ranked_at[j] if j < len(ranked_at) else ()):
                    support[cid] += weight[t]
                j += 1
                continue
        else:
            # Past the longest ranking, so the supports count whole rankings.
            if not notes:
                notes.append(
                    "rank thresholds exhausted; remaining seats filled by "
                    "greatest support with supporter weights zeroed"
                )
            contenders = [c for c in range(m) if c not in elected]
        [chosen] = _take_first(
            contenders, 1, support.__getitem__, "election", len(elected) + 1,
            tie_events,
        )
        if log:
            rounds.append(
                Round(
                    len(elected) + 1,
                    RationalsOver(support, den),
                    quota,
                    ZERO,
                    events=[RoundEvent("elected", chosen)],
                    threshold=j,
                )
            )
        elected.append(chosen)
        # Supporters keep p/q of their weight: (support - quota) / support in
        # lowest terms, or 0 past the longest ranking.
        p, q = 0, 1
        if j <= m:
            over = support[chosen] * qd
            g = math.gcd(over - qn * den, over)
            p, q = (over - qn * den) // g, over // g
        if q != 1:
            den *= q
            weight = [w * q for w in weight]
            support = [s * q for s in support]
        for t, pos in ranks_of[chosen]:
            w = weight[t]
            if pos < j and w:
                cut = w - w // q * p
                weight[t] -= cut
                for cid in ballots[t].ranking[:j]:
                    support[cid] -= cut

    return _result("ear", quota, elected, rounds, tie_events, notes)


def ear(election: Election) -> TabulationResult:
    """Expanding approvals with the exact quota V/(k+1).

    A rank threshold j starts at 1. A candidate's support is the total weight
    of ballots ranking them at position <= j. While seats remain: elect the
    unelected candidate with the largest support at or above quota, rescaling
    supporting ballots by (support - quota)/support; if nobody qualifies,
    j grows. Should j pass the longest possible ranking with seats still
    open, the remaining seats go to the candidates with greatest support in
    turn, each election zeroing its supporters' weights.

    The count (_ear_count, which search probes run without the log) is
    exact and adds integers, as Scottish STV's does. Each ballot type's
    weight and each candidate's support is an integer over one common
    denominator den, which starts at 1, a type weighing its multiplicity.
    Raising the threshold to j + 1 adds each type's weight to the support
    of the candidate it ranks at depth j. An election reduces
    (support - quota)/support of the chosen to p/q (0/1 past the longest
    ranking) and multiplies den, every weight and every support by q;
    each supporter then loses cut = w - w // q * p of its weight w, and so
    does the support of each candidate in its top j. A contender is one
    with support * qd >= qn * den for the quota qn/qd.
    """
    profile = election.profile
    return _ear_count(profile, profile.multiplicities, election.k, log=True)


# The one count of each integer-counting rule, by tag: tabulate runs it
# with its round log, criteria.ProbeSession without.
COUNTS = {"scottish": _scottish_count, "meek": _meek_count, "ear": _ear_count}


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


def committees(m: int, k: int) -> Iterable[tuple[int, ...]]:
    """Size-k committees of 0..m-1 in lexicographic order; m <= MAX_ENUM_CANDIDATES."""
    if m > MAX_ENUM_CANDIDATES:
        raise EnumerationGuardError(
            f"committee enumeration needs m <= {MAX_ENUM_CANDIDATES} candidates, got {m}"
        )
    return itertools.combinations(range(m), k)


@functools.cache
def _members_index(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """For each candidate, the indexes of the size-k committees that hold them.

    Indexes count committees in itertools.combinations order. Built through
    committees(), so it refuses m above MAX_ENUM_CANDIDATES.
    """
    index: list[list[int]] = [[] for _ in range(m)]
    for i, committee in enumerate(committees(m, k)):
        for c in committee:
            index[c].append(i)
    return tuple(map(tuple, index))


def _cc_scores(
    ballots: Sequence[BallotType], m: int, k: int, model: str
) -> list[int]:
    """cc_score of every size-k committee, in itertools.combinations order.

    Scores are exact integers, the sum of one row per ballot type. A type of
    multiplicity n gives a committee n * (m - 1 - position) of its
    best-ranked member, or the unranked value (n * (m - len - 1) under "om",
    0 under "pm") when it ranks no member; that value is never above a
    ranked one. The row starts at the unranked value, and the ranking is
    walked from its last candidate to its first, writing each candidate's
    value at every committee that holds them (_members_index), so each
    committee ends with the value of its best-ranked member. Refuses m above
    MAX_ENUM_CANDIDATES.
    """
    if model not in ("om", "pm"):
        raise ValueError(f"model must be 'om' or 'pm', got {model!r}")
    members = _members_index(m, k)
    scores = [0] * math.comb(m, k)
    for bt in ballots:
        n, ranking = bt.multiplicity, bt.ranking
        row = [n * (m - len(ranking) - 1) if model == "om" else 0] * len(scores)
        for pos in range(len(ranking) - 1, -1, -1):
            value = n * (m - 1 - pos)
            for i in members[ranking[pos]]:
                row[i] = value
        scores = list(map(add, scores, row))
    return scores


def first_best_committee(
    committees: Iterable[Iterable[int]], scores: Sequence
) -> WinnerSet:
    """The committee of the first best score, tie-flagged when it is not unique.

    This is the one tie-break rule for committees. scores[i] is the score of
    the i-th committee; listed in lexicographic order, as
    itertools.combinations gives them, the first best is the
    lexicographically smallest.
    """
    best = max(scores)
    committee = next(itertools.islice(committees, scores.index(best), None))
    return WinnerSet(frozenset(committee), scores.count(best) > 1)


class CCScores:
    """Chamberlin-Courant scores of every size-k committee of one election.

    base holds them in itertools.combinations order and winners is their
    argmax. The scores (_cc_scores) are a sum of one row per ballot type,
    linear in its multiplicity, so winners_without(selection) scores a
    removal by difference: the removed ballots, each type at the count the
    selection removes, are scored as their own table, which is subtracted
    from base once.
    """

    def __init__(self, election: Election, model: str):
        self.profile, self.k, self.model = election.profile, election.k, model
        self.base = _cc_scores(self.profile.ballots, self.profile.m, self.k, model)
        self.winners = self._argmax(self.base)

    def _argmax(self, scores: Sequence[int]) -> WinnerSet:
        return first_best_committee(committees(self.profile.m, self.k), scores)

    def winners_without(self, selection: BallotSelection) -> WinnerSet:
        _validate_removal(self.profile, selection)
        ballots = self.profile.ballots
        removed = [
            BallotType(ballots[t].ranking, count) for t, count in selection.entries
        ]
        table = _cc_scores(removed, self.profile.m, self.k, self.model)
        return self._argmax(list(map(sub, self.base, table)))


def cc(election: Election, model: str) -> WinnerSet:
    """Exact Chamberlin-Courant: argmax of cc_score over all size-k committees.

    Ties go to the lexicographically smallest id tuple, with the tie flag set.
    Refuses profiles with more than MAX_ENUM_CANDIDATES candidates. The
    scores are summed from one row per ballot type, written through the
    committees each candidate belongs to (_cc_scores); see CCScores for how a
    removal is scored as its own table and subtracted.
    """
    return CCScores(election, model).winners


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
    return tabulate(election, "positional", sv=sv).winners


# ---------------------------------------------------------------------------
# Dispatcher and JSON rendering


def tabulate(
    election: Election, method: str, *, sv: ScoringVector | None = None
) -> TabulationResult:
    """Run one of the five rules by tag; see METHOD_TAGS.

    sv applies to positional only (default Borda); passing it with any other
    rule raises PreconditionError. Meek runs at its default settings (see
    meek_stv for a tolerance or an iteration cap).
    """
    if sv is not None and method != "positional":
        raise PreconditionError(
            f"a scoring vector applies to 'positional' only, not {method!r}"
        )
    count = COUNTS.get(method)
    if count is not None:
        profile = election.profile
        return count(profile, profile.multiplicities, election.k, log=True)
    if method in CC_MODELS:
        return _one_round(method, cc(election, CC_MODELS[method]), {})
    if method == "positional":
        if sv is None:
            sv = borda_vector(election.profile.m)
        scores = positional_scores(election.profile, sv)
        ties: list[TieEvent] = []
        top = _take_first(scores, election.k, scores.__getitem__, "election", 1, ties)
        winners = WinnerSet(frozenset(top), bool(ties))
        return _one_round(method, winners, scores, tie_events=ties)
    raise PreconditionError(f"unknown method {method!r}; expected one of {METHOD_TAGS}")


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
