"""Scottish STV computed per parcel in rationals, kept as a test reference.

This is the count as first written: every parcel of ballots carries its
own rational value, and each transfer multiplies and adds one rational per
parcel. The production `scottish_stv` counts in integers over one common
denominator instead; the tests require the two to produce identical round
logs.
"""

from __future__ import annotations

from blocaudit.methods import (
    ELECTED,
    ELIMINATED,
    HOPEFUL,
    Round,
    RoundEvent,
    RoundLog,
    TabulationResult,
    TieEvent,
    WinnerSet,
    _fate_tie_flag,
    _take_first,
    droop_quota,
)
from blocaudit.rationals import ONE, ZERO, rational


# The election and elimination helpers as first written, scanning the status
# of every candidate each round, so this reference does not share them with
# the count it checks.


def _elect_crossers(
    reached, totals, status, elected: list[int], k: int,
    rnd: Round, tie_events: list[TieEvent],
) -> list[int]:
    """Elect the hopefuls c with reached(c), highest total first, while seats remain.

    totals maps each candidate to a total in whatever ordered unit the count
    keeps. A tie on the last open seat's total goes to the lower id and is
    recorded as an "election" tie. Returns the candidates elected, in order.
    """
    crossers = _take_first(
        (c for c in status if status[c] == HOPEFUL and reached(c)),
        k - len(elected), totals.__getitem__, "election", rnd.number, tie_events,
    )
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
    [out] = _take_first(
        (c for c in status if status[c] == HOPEFUL),
        1, lambda c: -totals[c], "elimination", rnd.number, tie_events,
    )
    status[out] = ELIMINATED
    rnd.events.append(RoundEvent("eliminated", out))
    return out


def reference_scottish_stv(election) -> TabulationResult:
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
