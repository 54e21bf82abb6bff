"""The expanding approvals rule computed per ballot in rationals, kept as a test reference.

This is the count as first written: every ballot type carries its own
rational weight, every threshold rescans every ballot to total the
supports, and an election multiplies each supporter's weight by the
rescaling factor. The production count (`tabulate(election, "ear")`)
instead keeps one integer weight per ballot type and one integer support
per candidate over a common denominator, updating only the types a step
touches; the tests require the two to produce identical round logs.
"""

from __future__ import annotations

from blocaudit.methods import (
    Round,
    RoundEvent,
    RoundLog,
    TabulationResult,
    TieEvent,
    WinnerSet,
    _fate_tie_flag,
    exact_droop_quota,
)
from blocaudit.rationals import ZERO, rational


def reference_ear(election) -> TabulationResult:
    profile = election.profile
    k = election.k
    m = profile.m
    quota = exact_droop_quota(profile.total_ballots, k)

    ids = [c.id for c in profile.candidates]
    rankings = [bt.ranking for bt in profile.ballots]
    weights = [rational(bt.multiplicity) for bt in profile.ballots]
    elected: list[int] = []
    rounds: list[Round] = []
    tie_events: list[TieEvent] = []
    notes: list[str] = []

    def supports(threshold):
        out = {cid: ZERO for cid in ids}
        for t, ranking in enumerate(rankings):
            w = weights[t]
            if w == 0:
                continue
            depth = len(ranking) if threshold is None else min(threshold, len(ranking))
            for cid in ranking[:depth]:
                out[cid] += w
        return out

    j = 1
    while len(elected) < k:
        if j <= m:
            support = supports(j)
            eligible = [
                c for c in ids if c not in elected and support[c] >= quota
            ]
            if not eligible:
                j += 1
                continue
            best_value = max(support[c] for c in eligible)
            tied = sorted(c for c in eligible if support[c] == best_value)
            if len(tied) > 1:
                tie_events.append(
                    TieEvent(len(rounds) + 1, "election", tuple(tied), (tied[0],))
                )
            chosen = tied[0]
            factor = (best_value - quota) / best_value
            for t, ranking in enumerate(rankings):
                if chosen in ranking[:j]:
                    weights[t] *= factor
        else:
            if not notes:
                notes.append(
                    "rank thresholds exhausted; remaining seats filled by "
                    "greatest support with supporter weights zeroed"
                )
            support = supports(None)
            contenders = [c for c in ids if c not in elected]
            best_value = max(support[c] for c in contenders)
            tied = sorted(c for c in contenders if support[c] == best_value)
            if len(tied) > 1:
                tie_events.append(
                    TieEvent(len(rounds) + 1, "election", tuple(tied), (tied[0],))
                )
            chosen = tied[0]
            for t, ranking in enumerate(rankings):
                if chosen in ranking:
                    weights[t] = ZERO
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
