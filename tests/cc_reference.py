"""Chamberlin-Courant as the argmax of its definition, kept as a test reference.

Every committee is scored with the public cc_score, one ballot at a time,
in itertools.combinations order. The production `cc` sums one row per
ballot type, written through committee membership lists, and probe sessions
score removals by difference; the tests require both to give this winner
set and tie flag.
"""

from __future__ import annotations

import itertools

from blocaudit.methods import WinnerSet, cc_score


def reference_cc(profile, k, model) -> WinnerSet:
    """The argmax of cc_score under cc()'s tie rule: first best committee wins."""
    best, best_score, tie = None, 0, False
    for committee in itertools.combinations(range(profile.m), k):
        score = cc_score(profile, committee, model)
        if best is None or score > best_score:
            best, best_score, tie = committee, score, False
        elif score == best_score:
            tie = True
    return WinnerSet(frozenset(best), tie)
