"""Meek STV computed directly in exact rationals, kept as a test reference.

This is the keep-factor count as first written: every ballot weight, total
and keep factor is a rational, and keep factors are quantized to
denominator 10**18 after each update. The production count (`meek_stv`,
and `tabulate(election, "meek")` at the defaults) computes the same count
in integer fixed point; the tests require the two to produce
identical round logs.
"""

from __future__ import annotations

from blocaudit.errors import MeekNonConvergenceError
from blocaudit.methods import (
    DEFAULT_MEEK_MAX_ITERATIONS,
    Round,
    RoundEvent,
    RoundLog,
    TabulationResult,
    TieEvent,
    WinnerSet,
    _fate_tie_flag,
    exact_droop_quota,
)
from blocaudit.rationals import ONE, ZERO, rational

HOPEFUL = "hopeful"
ELECTED = "elected"
ELIMINATED = "eliminated"

KEEP_DENOMINATOR = 10**18


def reference_meek_stv(
    election, tolerance=None, max_iterations=DEFAULT_MEEK_MAX_ITERATIONS
) -> TabulationResult:
    profile = election.profile
    k = election.k
    if tolerance is None:
        tolerance = rational(1, 10**9)
    total = profile.total_ballots

    ids = [c.id for c in profile.candidates]
    status = {cid: HOPEFUL for cid in ids}
    keep = {cid: ONE for cid in ids}
    ballots = [(bt.ranking, bt.multiplicity) for bt in profile.ballots]

    def quantize(x):
        return rational(
            x.numerator * KEEP_DENOMINATOR // x.denominator, KEEP_DENOMINATOR
        )

    def distribute():
        totals = {cid: ZERO for cid in ids}
        exhausted = ZERO
        for ranking, mult in ballots:
            w = rational(mult)
            for cid in ranking:
                kf = keep[cid]
                if kf == 0:
                    continue
                take = w * kf
                totals[cid] += take
                w -= take
                if w == 0:
                    break
            exhausted += w
        return totals, exhausted

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
            quota = (rational(total) - exhausted) / rational(k + 1)
            rnd = Round(
                len(rounds) + 1, totals, quota, exhausted, keep_factors=dict(keep)
            )
            for c in sorted(hopefuls):
                status[c] = ELECTED
                elected.append(c)
                rnd.events.append(RoundEvent("elected", c))
            rounds.append(rnd)
            break

        while True:
            iteration += 1
            if iteration > max_iterations:
                raise MeekNonConvergenceError(max_iterations)
            totals, exhausted = distribute()
            quota = (rational(total) - exhausted) / rational(k + 1)
            rnd = Round(
                len(rounds) + 1, totals, quota, exhausted, keep_factors=dict(keep)
            )
            rounds.append(rnd)

            open_seats = k - len(elected)
            crossers = sorted(
                (c for c in ids if status[c] == HOPEFUL and totals[c] >= quota),
                key=lambda c: (-totals[c], c),
            )
            if len(crossers) > open_seats:
                cutoff_value = totals[crossers[open_seats - 1]]
                if totals[crossers[open_seats]] == cutoff_value:
                    tied = tuple(c for c in crossers if totals[c] == cutoff_value)
                    chosen = tuple(
                        c for c in crossers[:open_seats] if totals[c] == cutoff_value
                    )
                    tie_events.append(TieEvent(rnd.number, "election", tied, chosen))
                crossers = crossers[:open_seats]
            for c in crossers:
                status[c] = ELECTED
                elected.append(c)
                rnd.events.append(RoundEvent("elected", c))
            if len(elected) == k:
                break

            converged = not crossers and all(
                abs(totals[c] - quota) <= tolerance for c in elected
            )
            if converged:
                hopefuls = [c for c in ids if status[c] == HOPEFUL]
                low_value = min(totals[c] for c in hopefuls)
                tied = sorted(c for c in hopefuls if totals[c] == low_value)
                if len(tied) > 1:
                    tie_events.append(
                        TieEvent(rnd.number, "elimination", tuple(tied), (tied[0],))
                    )
                out = tied[0]
                status[out] = ELIMINATED
                keep[out] = ZERO
                rnd.events.append(RoundEvent("eliminated", out))
                break

            for c in elected:
                if totals[c] > 0:
                    scaled = quantize(keep[c] * quota / totals[c])
                    keep[c] = scaled if scaled < ONE else ONE

    members = frozenset(elected)
    winners = WinnerSet(members, _fate_tie_flag(tie_events, members))
    return TabulationResult(
        winners, RoundLog("meek", initial_quota, rounds, tie_events)
    )
