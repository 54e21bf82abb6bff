"""The five multiwinner voting rules, in exact rational arithmetic.

tabulate(election, tag) runs any of them and returns a TabulationResult: a
WinnerSet plus a RoundLog holding per-round exact vote totals and the events
that produced them. meek_stv is the one other way in, for a Meek tolerance
or iteration cap other than the defaults. Scottish STV, Meek STV and EAR
each have one integer count (COUNTS) over a profile's ballot types at given
multiplicities: tabulate runs it with the round log, and a search probe
(criteria.ProbeSession) runs it without one, over the source multiplicities
less the removal, so a probe builds neither a reduced profile nor any Round,
RoundEvent or RationalsOver.

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
    ONE, ZERO, RationalsOver, decimal_string, rational,
)

CC_MODELS = {"cc-om": "om", "cc-pm": "pm"}  # Chamberlin-Courant tag -> model
# The rules audits run. Positional is not one: k-Borda and k-plurality
# committees are immune to removal flips (acceptance test 5).
AUDIT_METHODS = ("scottish", "meek", "ear", *CC_MODELS)
METHOD_TAGS = (*AUDIT_METHODS, "positional")

MAX_ENUM_CANDIDATES = 20

MEEK_KEEP_DENOMINATOR = 10**18
DEFAULT_MEEK_TOLERANCE = rational(1, 10**9)
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
    TieEvent of this kind records them all and the ones taken. Taking one
    candidate needs no sort: one pass finds the best value and who holds it.
    """
    if n == 1:
        tied: list[int] = []
        for c in candidates:
            v = value(c)
            if not tied or v > best:
                best, tied = v, [c]
            elif v == best:
                tied.append(c)
        if len(tied) > 1:
            tied.sort()
            tie_events.append(TieEvent(round_number, kind, tuple(tied), (tied[0],)))
        return tied[:1]
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
    tied: list[int] = []
    for c in hopefuls:
        v = totals[c]
        if not tied or v < low:
            low, tied = v, [c]
        elif v == low:
            tied.append(c)
    out = min(tied)
    if len(tied) > 1:
        tie_events.append(TieEvent(number, "elimination", tuple(sorted(tied)), (out,)))
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
# Exactness: remove_ballots keeps the canonical type order and drops the
# types that reach 0, so a count that skips the types of multiplicity 0
# sees the reduced profile's types, in its order, with its counts. What a
# count reads from the profile as a whole comes from the live types alone,
# as the reduced profile's would: the ballot total V = sum(mults) behind
# Scottish's integer quota and EAR's Droop quota. Meek's scale is the one
# exception: it reads the longest ranking of every type, live or not, which
# may set a larger unit than the reduced profile's but logs the same
# rationals (see _meek_count).


# ---------------------------------------------------------------------------
# Scottish STV


def _scottish_count(
    profile: PreferenceProfile, mults: Sequence[int], k: int, log: bool = False
) -> TabulationResult:
    """Fractional-transfer STV with a fixed integer quota.

    One transfer action per round: distribute the largest pending surplus at
    value surplus/total per ballot, or eliminate the lowest hopeful at current
    values. Candidates at or above quota are elected at the top of each round
    and receive no further transfers; a distributed winner retains exactly the
    quota. Rounds snapshot totals before that round's action, matching the
    published votes-by-round layout.

    The count adds integers over one common denominator den, which starts
    at 1, as EAR's does. A pile holds (f, children) items, one per node of
    PreferenceProfile.prefix_tree whose prefix ends at the holder: each
    ballot of the node's live types is worth f. A transfer at p/q
    (surplus/total in lowest terms, or 1/1 for an elimination) multiplies
    den, every total, the exhausted weight and every held f by q, and each
    moved f by p, then walks the moved nodes on to their first hopeful
    children; what reaches none exhausts. Weighing each type alone, at
    w // q * p after the multiply by q (w * p before it), gives the same
    integers: types that share a prefix up to their holder moved together
    at every transfer, so their weights stay in proportion to their
    multiplicities. Totals are compared with the quota as total >= quota * den.
    """
    m = profile.m
    quota = droop_quota(sum(mults), k)
    cum = list(itertools.accumulate(mults, initial=0))

    hopefuls = set(range(m))
    piles: list[list[tuple[int, tuple]]] = [[] for _ in range(m)]
    totals = [0] * m
    den = 1
    # the items yet to walk on to a hopeful, whose weight exhausts till then
    moved = [(1, profile.prefix_tree[1][1])]
    exhausted = cum[-1]
    elected: list[int] = []
    pending_surplus: list[int] = []
    rounds: list[Round] | None = [] if log else None
    tie_events: list[TieEvent] = []
    events = None

    number = 0
    while True:
        while moved:
            f, children = moved.pop()
            for c, lo, hi, (_, below) in children:
                n = cum[hi] - cum[lo]
                if not n:
                    continue
                if c in hopefuls:
                    w = f * n
                    totals[c] += w
                    exhausted -= w
                    if below:
                        piles[c].append((f, below))
                elif below:
                    moved.append((f, below))
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
            if log:
                events.append(RoundEvent("surplus", c))
            if surplus > 0:
                g = math.gcd(surplus, totals[c])
                p, q = surplus // g, totals[c] // g  # 0 < surplus < total: q > 1
                moved = [(f * p, below) for f, below in piles[c]]
                piles[c] = []
                den *= q
                totals = [total * q for total in totals]
                piles = [[(f * q, below) for f, below in pile] for pile in piles]
                exhausted = (exhausted + surplus) * q
                totals[c] = quota * den
        else:
            c = _eliminate_lowest(totals, hopefuls, number, events, tie_events)
            moved, piles[c] = piles[c], []
            exhausted += totals[c]
            totals[c] = 0

    return _result("scottish", quota, elected, rounds, tie_events)


# ---------------------------------------------------------------------------
# Meek STV


def _meek_count(
    profile: PreferenceProfile,
    mults: Sequence[int],
    k: int,
    log: bool = False,
    tolerance=DEFAULT_MEEK_TOLERANCE,
    max_iterations: int = DEFAULT_MEEK_MAX_ITERATIONS,
) -> TabulationResult:
    """Meek STV (see meek_stv, which checks tolerance and max_iterations).

    The count is in exact integer fixed point, after Hill, Wichmann and
    Woodall, "Algorithm 123", Computer Journal 30(3), 1987. A keep factor is
    an integer K <= D = MEEK_KEEP_DENOMINATOR standing for K/D; each update
    rounds keep*quota/votes down to a multiple of 1/D, far below the
    default tolerance.

    Elected candidates are partials. A ballot's weight flows along its
    path: the partials, the elected candidates it ranks before its end, in
    ranking order, then its end, the first hopeful it ranks, or exhaustion
    when it ranks none. Eliminated candidates (K = 0) are skipped. A
    partial takes K/D of what reaches them, all of it at K = D and none at
    K = 0, so a keep update never changes a path; only an election or an
    elimination does.

    Regrouping by path end. Hopefuls are only ever path ends, so an election
    or elimination changes only the paths that end at that candidate, and
    those are walked on from the candidate's position, after every
    candidate elected in that iteration has been marked. The types are in
    canonical order, so the types that share a ranking prefix are one index
    range (PreferenceProfile.prefix_tree), and a path holds such ranges,
    each weighing a difference of one prefix sum of the multiplicities.
    Types that share a path are summed into one weight. Every path starts
    at its type's first preference.

    Scale. A path of n ballots starts at weight n*S, S = D**P, P = min(L,
    k - 1), with L the longest ranking of any of the profile's types. While
    iterations run at most k - 1 candidates are elected, and a live path
    ranks at most L candidates, so no path has more than P partials. The
    quota test, the tolerance test and the keep update compare or divide
    integers of one unit, so every scale at which the takes are exact logs
    the same rationals.

    Takes without division. With partials K_0..K_(p-1) and Q_i the product
    of (D - K_l) for l < i, the i-th partial takes n*K_i*Q_i*D**(P-1-i)
    and the end receives n*Q_p*D**(P-p): the exact values
    n*S*(K_i/D)*prod((D - K_l)/D), as integers, since p <= P. So totals
    and the exhausted weight are exact integers over S. Each iteration
    builds the takes of each distinct partials tuple once, from the summed
    weight of its paths, and each end costs one multiply-add. Paths without
    partials land in the same slot every iteration, so their weights are
    summed once per change of paths into start totals, with a last slot for
    the exhausted weight. Integer addition in another order gives the same
    integers.
    """
    total = sum(mults)
    D = MEEK_KEEP_DENOMINATOR
    longest, root = profile.prefix_tree
    P = min(longest, k - 1)
    powers = [D**j for j in range(P + 1)]
    scale = powers[P]
    full = total * scale
    # quota = (full - exhausted) / quota_den = quota_num / quota_den, so a
    # total T reaches it when T*(k+1) >= quota_num; the tolerance is scaled
    # to the same unit 1/quota_den, and floored, since it bounds an integer.
    k1 = k + 1
    quota_den = k1 * scale
    tolerance_scaled = (
        int(tolerance.numerator) * quota_den // int(tolerance.denominator)
    )

    m = profile.m
    hopefuls = set(range(m))
    won: set[int] = set()
    keep = [D] * m
    cum = list(itertools.accumulate(mults, initial=0))
    # partials -> end -> weight in ballots, end m for exhaustion, and for
    # each hopeful the (partials, node) pairs whose paths end at them
    paths: dict[tuple[int, ...], dict[int, int]] = {}
    ending: dict[int, list[tuple[tuple[int, ...], tuple]]] = {}
    # the weights at scale of the paths without partials, by end, and the
    # paths with partials; move rebuilds both from paths
    start: list[int]
    flowing: list

    def walk(partials: tuple[int, ...], node: tuple) -> None:
        """Add the paths of a node's types, from past its prefix on."""
        stop, children = node
        if stop is not None and mults[stop]:
            ends = paths.setdefault(partials, {})
            ends[m] = ends.get(m, 0) + mults[stop]
        for c, lo, hi, child in children:
            n = cum[hi] - cum[lo]
            if not n:
                continue
            if c in hopefuls:
                ends = paths.setdefault(partials, {})
                ends[c] = ends.get(c, 0) + n
                ending.setdefault(c, []).append((partials, child))
            elif c in won:
                walk(partials + (c,), child)
            else:
                walk(partials, child)

    def move(changed: list[int]) -> None:
        """Walk on the paths that end at the candidates just elected or
        eliminated, then rebuild start and flowing."""
        nonlocal start, flowing
        for c in changed:
            grown = c in won
            for partials, node in ending.pop(c, ()):
                # several pairs can share partials, so an earlier pair may
                # have popped c from their ends and deleted the emptied ends
                ends = paths.get(partials)
                if ends and ends.pop(c, None) is not None and not ends:
                    del paths[partials]
                walk(partials + (c,) if grown else partials, node)
        start = [0] * (m + 1)
        flowing = []
        for partials, ends in paths.items():
            if partials:
                flowing.append((partials, sum(ends.values()), list(ends.items())))
            else:
                for end, n in ends.items():
                    start[end] = n * scale

    # every candidate is hopeful, so the walk stops at the root's children;
    # move builds start and flowing from the paths it finds
    walk((), root)
    move([])

    elected: list[int] = []
    rounds: list[Round] | None = [] if log else None
    tie_events: list[TieEvent] = []
    events = None

    number = 0
    while len(elected) < k:
        totals = start.copy()
        for partials, n, ends in flowing:
            q = 1  # the product of (D - K) over the partials so far
            j = P
            for cid in partials:
                kf = keep[cid]
                j -= 1
                totals[cid] += n * kf * q * powers[j]
                q *= D - kf
            unit = q * powers[j]
            for end, n_end in ends:
                totals[end] += n_end * unit
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
        if _elect_remaining(hopefuls, elected, k, events):
            break

        # only a round that fills the seats outright is not an iteration
        if number > max_iterations:
            raise MeekNonConvergenceError(max_iterations)
        # T*(k+1) >= quota_num exactly when T >= ceil(quota_num / (k+1))
        bar = -(-quota_num // k1)
        if max(map(totals.__getitem__, hopefuls)) >= bar:
            crossers = _elect_crossers(
                totals, bar, hopefuls, elected, k, number, events, tie_events
            )
            if len(elected) == k:
                break
            won.update(crossers)
            move(crossers)
        else:
            converged = True
            for c in elected:
                gap = totals[c] * k1 - quota_num
                if gap > tolerance_scaled or gap < -tolerance_scaled:
                    converged = False
                    break
            if converged:
                out = _eliminate_lowest(totals, hopefuls, number, events, tie_events)
                keep[out] = 0
                move([out])
                continue

        for c in elected:
            if totals[c] > 0:
                # floor(D * keep*quota/votes), capped at 1
                kf = keep[c] * quota_num // (k1 * totals[c])
                if kf > D:
                    kf = D
                keep[c] = kf

    initial_quota = exact_droop_quota(total, k) if log else None
    return _result("meek", initial_quota, elected, rounds, tie_events)


def meek_stv(
    election: Election,
    tolerance=DEFAULT_MEEK_TOLERANCE,
    max_iterations: int = DEFAULT_MEEK_MAX_ITERATIONS,
) -> TabulationResult:
    """Keep-factor STV with a dynamic quota, at a chosen tolerance and cap.

    Each ballot's weight flows down its ranking; candidate c retains keep[c]
    of whatever reaches them. The quota (V - exhausted)/(k+1) is recomputed
    every iteration; elected candidates' keep factors are rescaled by
    quota/votes until every elected total sits within tolerance (an exact
    rational, default 1e-9) of quota. When no progress is possible the
    lowest hopeful is excluded. max_iterations caps the keep-factor
    iterations of the whole count, summed over every stage rather than per
    stage; passing it raises MeekNonConvergenceError. A negative or inexact
    tolerance (not a numbers.Rational, such as an int, a Fraction or an mpq)
    or a max_iterations below 1 raises PreconditionError.
    tabulate(election, "meek") runs the same count at the defaults.
    """
    from numbers import Rational  # loaded already, by fractions
    if not isinstance(tolerance, Rational) or tolerance < 0:
        raise PreconditionError(
            f"Meek tolerance must be an exact rational >= 0, got {tolerance!r}"
        )
    if max_iterations < 1:
        raise PreconditionError(
            f"Meek max_iterations must be >= 1, got {max_iterations}"
        )
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
    """Expanding approvals with the exact quota V/(k+1).

    A rank threshold j starts at 1. A candidate's support is the total weight
    of ballots ranking them at position <= j. While seats remain: elect the
    unelected candidate with the largest support at or above quota, rescaling
    supporting ballots by (support - quota)/support; if nobody qualifies,
    j grows. Should j pass the longest possible ranking with seats still
    open, the remaining seats go to the candidates with greatest support in
    turn, each election zeroing its supporters' weights.

    The count adds integers, as Scottish STV's does. Each ballot type's
    weight and each candidate's support is an integer over one common
    denominator den, which starts at 1, a type weighing its multiplicity.
    Raising the threshold to j + 1 adds each type's weight to the support
    of the candidate it ranks at depth j, so it touches only the types in
    profile.ranked_at[j]. An election reduces (support - quota)/support of
    the chosen to p/q (0/1 past the longest ranking) and multiplies den,
    every weight and every support by q; each supporter, a type in
    profile.ranks_of[chosen] that ranks the chosen within the threshold,
    then loses cut = w - w // q * p of its weight w, and so does the support
    of each candidate in its top j. A contender is one with support * qd >=
    bar = qn * den, for the quota qn/qd. The count stops at the k-th seat.
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
    bar = qn  # qn * den: the quota in units of 1/den, times qd
    unelected = list(range(m))
    elected: list[int] = []
    rounds: list[Round] | None = [] if log else None
    tie_events: list[TieEvent] = []
    notes: list[str] = []

    j = 1
    while True:
        if j <= m:
            contenders = [c for c in unelected if support[c] * qd >= bar]
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
            contenders = unelected
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
        if len(elected) == k:
            break
        unelected.remove(chosen)
        # Supporters keep p/q of their weight: (support - quota) / support in
        # lowest terms, or 0 past the longest ranking.
        p, q = 0, 1
        if j <= m:
            over = support[chosen] * qd
            g = math.gcd(over - bar, over)
            p, q = (over - bar) // g, over // g
        if q != 1:
            den *= q
            bar *= q
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
    """Exact Chamberlin-Courant: the argmax of cc_score over all size-k committees.

    Ties go to the lexicographically smallest id tuple, with the tie flag
    set. Refuses profiles with more than MAX_ENUM_CANDIDATES candidates, and
    a model other than "om" or "pm" (ValueError). base holds every
    committee's score in itertools.combinations order and winners is their
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


# ---------------------------------------------------------------------------
# Dispatcher and JSON rendering


def tabulate(
    election: Election, method: str, *, sv: ScoringVector | None = None
) -> TabulationResult:
    """Run one of the five rules by tag, with its round log; see METHOD_TAGS.

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
        return _one_round(method, CCScores(election, CC_MODELS[method]).winners, {})
    if method == "positional":
        # The k candidates with the highest positional scores, ordered by
        # (score desc, id asc); a tie at the seat boundary is logged and
        # sets the tie flag.
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
