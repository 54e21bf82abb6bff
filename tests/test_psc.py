import itertools

import pytest

import blocaudit.psc as psc
from blocaudit import (
    EnumerationGuardError,
    PreconditionError,
    ScoringVector,
    check_ilvb,
    make_election,
    qpsc_method,
    qpsc_scoring_rule,
    selection_from_rankings,
    tabulate,
)
from blocaudit.methods import WinnerSet
from blocaudit.psc import (
    audit_hare_psc,
    constraint_to_json,
    enumerate_psc_committees,
    is_psc_committee,
    psc_constraints,
    solid_coalitions,
)
from blocaudit.rationals import rational


def left_election():
    # two near-quota singletons plus a two-candidate bloc with one spare vote
    return make_election(
        ["A", "B", "C", "D"],
        [((0,), 333), ((1,), 1), ((2, 3), 333), ((3, 2), 332)],
        2,
    )


def right_election():
    return make_election(
        ["A", "B", "C", "D"],
        [((0,), 1), ((2, 3), 666), ((1,), 332)],
        2,
    )


# -------------------------------------------------------- solid coalitions


def test_solid_coalitions_left():
    sizes = {
        tuple(sorted(sc.supported_set)): sc.size
        for sc in solid_coalitions(left_election().profile)
    }
    assert sizes == {(0,): 333, (1,): 1, (2,): 333, (3,): 332, (2, 3): 665}


def test_solid_coalitions_count_nested_prefixes():
    profile = make_election(
        ["a", "b", "c"], [((0, 1, 2), 4), ((1, 0), 3), ((2,), 2)], 1
    ).profile
    sizes = {
        tuple(sorted(sc.supported_set)): sc.size
        for sc in solid_coalitions(profile)
    }
    # {a,b} is solidly supported by both ballot shapes that begin with a
    # permutation of it; {a,b,c} only by the full ranking
    assert sizes == {
        (0,): 4,
        (1,): 3,
        (2,): 2,
        (0, 1): 7,
        (0, 1, 2): 4,
    }


def test_solid_coalitions_sorted_by_size_then_ids():
    coalitions = solid_coalitions(left_election().profile)

    def key(sc):
        return (len(sc.supported_set), sorted(sc.supported_set))

    assert [key(sc) for sc in coalitions] == sorted(key(sc) for sc in coalitions)


# -------------------------------------------------------------- constraints


def test_psc_constraints_droop_left():
    election = left_election()
    cset = psc_constraints(election.profile, election.k, rational(334))
    entries = {
        tuple(sorted(c.supported_set)): c.required for c in cset.constraints
    }
    assert entries == {(2, 3): 1}


def test_psc_constraints_after_removal_left():
    election = left_election()
    selection = selection_from_rankings(election.profile, [((1,), 1)])
    from blocaudit import Election, remove_ballots

    reduced = Election(remove_ballots(election.profile, selection), election.k)
    cset = psc_constraints(reduced.profile, reduced.k, rational(333))
    entries = {
        tuple(sorted(c.supported_set)): c.required for c in cset.constraints
    }
    assert entries == {(0,): 1, (2,): 1, (2, 3): 1}


def test_psc_constraints_required_capped_by_seats():
    # one bloc holding nearly everything cannot demand more than k seats
    election = make_election(
        ["a", "b", "c", "d"], [((0, 1, 2), 90), ((3,), 10)], 2
    )
    cset = psc_constraints(election.profile, election.k, rational(10))
    by_set = {
        tuple(sorted(c.supported_set)): c.required for c in cset.constraints
    }
    assert by_set[(0, 1, 2)] == 2  # floor(90/10) = 9, capped at k


def test_psc_constraints_require_positive_quota():
    election = left_election()
    with pytest.raises(PreconditionError):
        psc_constraints(election.profile, election.k, rational(0))


def test_is_psc_committee():
    election = left_election()
    cset = psc_constraints(election.profile, election.k, rational(334))
    assert is_psc_committee((2, 3), cset)
    assert is_psc_committee((0, 2), cset)
    assert not is_psc_committee((0, 1), cset)


# -------------------------------------------------------------- enumeration


def test_enumerate_left_and_right():
    assert len(enumerate_psc_committees(left_election(), rational(334))) == 5
    assert len(enumerate_psc_committees(right_election(), rational(334))) == 3


def test_enumerate_matches_bruteforce():
    election = left_election()
    q = rational(334)
    cset = psc_constraints(election.profile, election.k, q)
    expected = [
        committee
        for committee in itertools.combinations(range(election.profile.m), 2)
        if is_psc_committee(committee, cset)
    ]
    assert enumerate_psc_committees(election, q) == expected


def test_enumeration_guard():
    names = [f"c{i}" for i in range(21)]
    election = make_election(names, [((i,), 1) for i in range(21)], 2)
    with pytest.raises(EnumerationGuardError):
        enumerate_psc_committees(election, rational(1))


# ------------------------------------------------------------- scoring rule


def test_qpsc_scoring_left_fixture():
    election = left_election()
    sv = ScoringVector((rational(1), rational(1, 100)))
    winners = qpsc_scoring_rule(election, rational(334), sv)
    assert winners.members == {2, 3}
    assert not winners.tie_flag


def test_qpsc_scoring_right_fixture():
    election = right_election()
    sv = ScoringVector((rational(1), rational(1, 1000)))
    winners = qpsc_scoring_rule(election, rational(334), sv)
    assert winners.members == {1, 2}
    assert not winners.tie_flag


def test_qpsc_scoring_raises_when_nothing_compatible():
    election = make_election(
        ["a", "b", "c"], [((0,), 5), ((1,), 5), ((2,), 5)], 2
    )
    # three disjoint full-quota blocs cannot all be honored with two seats
    with pytest.raises(PreconditionError):
        qpsc_scoring_rule(election, rational(5), ScoringVector((rational(1),)))


def test_qpsc_method_as_removal_subject():
    """The constrained scoring rule itself fails the loser-ballot criterion.

    Removing the single ballot that bullet-voted B (a loser both times)
    tightens the proportionality constraints enough to hand A a seat.
    """
    election = left_election()
    rule = qpsc_method(ScoringVector((rational(1), rational(1, 100))))
    assert rule.method_tag == "qpsc"
    result = rule(election)
    assert result.winners.members == {2, 3}
    assert result.log.method == "qpsc"
    assert any("droop" in note for note in result.log.notes)

    selection = selection_from_rankings(election.profile, [((1,), 1)])
    record = check_ilvb(election, rule, selection)
    assert record is not None
    assert record.modified_winners.members == {0, 2}
    assert not record.modified_winners.tie_flag


def test_qpsc_method_scores_once_per_tabulation(monkeypatch):
    election = left_election()
    sv = ScoringVector((rational(1), rational(1, 100)))
    calls = []
    real = psc.positional_scores

    def counting(profile, sv):
        calls.append(sv)
        return real(profile, sv)

    monkeypatch.setattr(psc, "positional_scores", counting)
    result = qpsc_method(sv)(election)
    assert len(calls) == 1
    assert result.winners == qpsc_scoring_rule(election, rational(334), sv)


def test_qpsc_method_right_case():
    election = right_election()
    rule = qpsc_method(ScoringVector((rational(1), rational(1, 1000))))
    assert rule(election).winners.members == {1, 2}
    selection = selection_from_rankings(election.profile, [((0,), 1)])
    record = check_ilvb(election, rule, selection)
    assert record is not None
    assert record.modified_winners.members == {2, 3}


def test_qpsc_method_hare_mode():
    election = left_election()
    rule = qpsc_method(
        ScoringVector((rational(1), rational(1, 100))), q_mode="hare"
    )
    result = rule(election)
    assert any("hare" in note for note in result.log.notes)
    assert len(result.winners.members) == 2


def test_qpsc_method_rejects_unknown_mode():
    with pytest.raises(ValueError):
        qpsc_method(ScoringVector((rational(1),)), q_mode="imperial")


# -------------------------------------------------------------- Hare audit


def test_hare_audit_passes_on_wards(east_ayrshire, north_ayrshire):
    for election in (east_ayrshire, north_ayrshire):
        for method in ("scottish", "meek", "ear"):
            winners, _ = tabulate(election, method)
            assert audit_hare_psc(election, winners) == []


def test_hare_audit_flags_starved_bloc():
    # 60 of 90 ballots solidly back {a, b}; at the Hare quota 45 they are
    # owed one seat, so a committee ignoring both is flagged
    election = make_election(
        ["a", "b", "c", "d"],
        [((0, 1), 30), ((1, 0), 30), ((2,), 20), ((3,), 10)],
        2,
    )
    bad = audit_hare_psc(election, WinnerSet(frozenset({2, 3})))
    assert len(bad) == 1
    assert set(bad[0].supported_set) == {0, 1}
    good = audit_hare_psc(election, WinnerSet(frozenset({0, 2})))
    assert good == []


def test_constraint_to_json():
    election = left_election()
    cset = psc_constraints(election.profile, election.k, rational(334))
    doc = constraint_to_json(cset.constraints[0])
    assert doc == {"S": [2, 3], "size": 665, "required": 1}
