import json
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import blocaudit.criteria as criteria
import blocaudit.methods as methods
import blocaudit.rationals as rationals
import golden
from blocaudit import (
    FAMILIES,
    Election,
    GeneratorSpec,
    InputError,
    OracleBudgetError,
    PreconditionError,
    SearchParams,
    check_ilvb,
    check_iwvb,
    check_iwvb_star,
    generate,
    load_election,
    make_election,
    oracle_ilvb,
    record_to_json,
    remove_ballots,
    search_ilvb,
    search_iwvb,
    search_party_swaps,
    selection_from_rankings,
    tabulate,
    verify_record,
)
from blocaudit.cli import _audit_one
from blocaudit.criteria import ProbeSession
from blocaudit.methods import AUDIT_METHODS, CCScores, WinnerSet
from blocaudit.profiles import BallotSelection, selection_ranked_union
from cc_reference import reference_cc
from conftest import EAST_AYRSHIRE, random_profile, seeded_ward

# ----------------------------------------------------------------- checks


def displaced_winners(election, record):
    """The winners the record's removal did not rank who lost their seat."""
    ranked = selection_ranked_union(election.profile, record.removed)
    before = record.original_winners.members
    return (before - ranked) - record.modified_winners.members


def test_check_ilvb_east_ayrshire(east_ayrshire):
    selection = selection_from_rankings(east_ayrshire.profile, [((0,), 20)])
    record = check_ilvb(east_ayrshire, "scottish", selection)
    assert record is not None
    assert record.criterion == "ILVB"
    assert record.method == "scottish"
    assert record.original_winners.members == golden.EA_WINNERS
    assert record.modified_winners.members == golden.EA_MOD_WINNERS


def test_check_ilvb_no_violation_on_tiny_removal(east_ayrshire):
    selection = selection_from_rankings(east_ayrshire.profile, [((0,), 1)])
    assert check_ilvb(east_ayrshire, "scottish", selection) is None


def test_check_ilvb_rejects_winner_ballots(east_ayrshire):
    # ballots ranking Knapp (a winner) are out of scope for this criterion
    selection = selection_from_rankings(east_ayrshire.profile, [((1,), 5)])
    with pytest.raises(PreconditionError):
        check_ilvb(east_ayrshire, "scottish", selection)


def test_check_ilvb_empty_selection_is_none(east_ayrshire):
    assert check_ilvb(east_ayrshire, "scottish", BallotSelection(())) is None


def test_check_iwvb_north_ayrshire(north_ayrshire):
    selection = selection_from_rankings(north_ayrshire.profile, [((5,), 199)])
    record = check_iwvb(north_ayrshire, "scottish", selection)
    assert record is not None
    assert record.criterion == "IWVB"
    assert record.original_winners.members == golden.NA_WINNERS
    assert record.modified_winners.members == golden.NA_MOD_WINNERS
    # Stephen (6) never appeared on the removed ballots yet loses the seat
    assert displaced_winners(north_ayrshire, record) == {6}


def test_check_iwvb_star_north_ayrshire(north_ayrshire):
    selection = selection_from_rankings(north_ayrshire.profile, [((5,), 199)])
    record = check_iwvb_star(north_ayrshire, "scottish", selection)
    assert record is not None
    assert record.criterion == "IWVB_STAR"
    # the ranked candidate (McDonald) keeps a seat, so the strict variant
    # also counts this as a violation
    assert 5 in record.modified_winners.members


@pytest.mark.parametrize("method", AUDIT_METHODS)
def test_iwvb_counts_only_unranked_winners_losing_a_seat(method):
    # A, B win; without 10 of A's bullets C takes A's seat. The winner set
    # changes, but the only winner who lost a seat is the one the removed
    # ballots ranked, so neither IWVB nor IWVB_STAR is violated.
    election = make_election(["A", "B", "C"], [((0,), 26), ((1,), 30), ((2,), 20)], 2)
    selection = selection_from_rankings(election.profile, [((0,), 10)])
    reduced = Election(remove_ballots(election.profile, selection), election.k)
    assert tabulate(election, method).winners.members == {0, 1}
    assert tabulate(reduced, method).winners.members == {1, 2}
    assert check_iwvb(election, method, selection) is None
    assert check_iwvb_star(election, method, selection) is None


def test_check_iwvb_rejects_loser_ballots(north_ayrshire):
    selection = selection_from_rankings(north_ayrshire.profile, [((1,), 10)])
    with pytest.raises(PreconditionError):
        check_iwvb(north_ayrshire, "scottish", selection)
    with pytest.raises(PreconditionError):
        check_iwvb_star(north_ayrshire, "scottish", selection)


def test_check_iwvb_requires_proper_subset(north_ayrshire):
    # ballots covering the whole winner set leave no winner outside the
    # removed voters' view, so the definition does not even apply
    profile = north_ayrshire.profile
    available = {bt.ranking: bt.multiplicity for bt in profile.ballots}
    full_cover = [
        (r, 1)
        for r in available
        if set(r) <= golden.NA_WINNERS and set(r) == golden.NA_WINNERS
    ]
    if full_cover:
        selection = selection_from_rankings(profile, full_cover)
        with pytest.raises(PreconditionError):
            check_iwvb(north_ayrshire, "scottish", selection)


def test_checks_accept_callable_methods(east_ayrshire):
    def my_rule(election):
        return tabulate(election, "scottish")

    my_rule.method_tag = "scottish-wrapped"
    selection = selection_from_rankings(east_ayrshire.profile, [((0,), 20)])
    record = check_ilvb(east_ayrshire, my_rule, selection)
    assert record is not None
    assert record.method == "scottish-wrapped"


# ---------------------------------------------------------------- searches


def test_search_ilvb_east_ayrshire(east_ayrshire):
    records = search_ilvb(east_ayrshire, "scottish")
    assert len(records) == 7
    for record in records:
        assert record.criterion == "ILVB"
        # the loser who gains the seat, Scott (3), is ranked by no removed ballot
        assert selection_ranked_union(east_ayrshire.profile, record.removed) == {0}
        assert record.modified_winners.members == golden.EA_MOD_WINNERS
    totals = sorted(r.removed.total for r in records)
    # graded fractions of the 56 ballots that bullet-voted Holden:
    # only i/10 for i >= 4 remove enough to flip the count
    assert totals == [22, 28, 33, 39, 44, 50, 56]


def test_search_ilvb_dedups_and_reverifies(east_ayrshire):
    records = search_ilvb(east_ayrshire, "scottish")
    seen = set()
    for record in records:
        key = (record.criterion, record.method, record.removed)
        assert key not in seen
        seen.add(key)
        fresh = check_ilvb(east_ayrshire, "scottish", record.removed)
        assert fresh is not None
        assert fresh.modified_winners.members == record.modified_winners.members


def test_search_ilvb_single_loser_has_no_pool():
    # with one loser there is no "other loser" whose ballots could be
    # removed, so the search has nothing to probe
    election = make_election(["a", "b"], [((0,), 3), ((1,), 2)], 1)
    assert search_ilvb(election, "scottish") == []


def test_search_ilvb_finds_non_monotone_flip():
    """Regression fixture where more removals stop helping.

    Removing 3, 4, or 5 of the seven b>a ballots flips the winner set,
    but removing 6 or all 7 restores it. The graded-fraction ladder must
    report exactly the three working removals and nothing else.
    """
    election = make_election(
        ["c0", "c1", "c2", "c3", "c4"],
        [((0, 2), 5), ((1, 0), 7), ((2,), 6), ((3, 1, 0), 6), ((3, 2, 1), 6),
         ((4,), 6)],
        2,
    )
    base, log = tabulate(election, "scottish")
    assert base.members == {2, 3}
    assert log.quota == 13
    assert not base.tie_flag

    records = search_ilvb(election, "scottish")
    assert sorted(r.removed.total for r in records) == [3, 4, 5]
    for record in records:
        # only the b>a ballots are removed; the targeted loser c4 is unranked
        assert selection_ranked_union(election.profile, record.removed) == {0, 1}
        assert record.modified_winners.members == {0, 3}

    # direct checks around the flip region confirm the non-monotone edge
    for count, flips in ((2, False), (3, True), (5, True), (6, False), (7, False)):
        selection = selection_from_rankings(election.profile, [((1, 0), count)])
        outcome = check_ilvb(election, "scottish", selection)
        assert (outcome is not None) == flips


def test_search_iwvb_north_ayrshire(north_ayrshire):
    records = search_iwvb(north_ayrshire, "scottish")
    assert records, "expected the winner-ballot removal to be found"
    best = max(records, key=lambda r: r.removed.total)
    assert best.removed.total == 206
    assert displaced_winners(north_ayrshire, best) == {6}
    assert best.modified_winners.members == golden.NA_MOD_WINNERS


def test_search_iwvb_star_mode(north_ayrshire):
    records = search_iwvb(north_ayrshire, "scottish", star_mode=True)
    assert records
    for record in records:
        assert record.criterion == "IWVB_STAR"
        ranked_after = record.modified_winners.members
        assert record.original_winners.members != ranked_after


def test_search_iwvb_needs_two_seats():
    election = make_election(["a", "b", "c"], [((0,), 5), ((1,), 3), ((2,), 1)], 1)
    assert search_iwvb(election, "scottish") == []


def test_search_results_never_tie_flagged(east_ayrshire, north_ayrshire):
    for election in (east_ayrshire, north_ayrshire):
        for records in (
            search_ilvb(election, "scottish"),
            search_iwvb(election, "scottish"),
        ):
            for record in records:
                assert not record.original_winners.tie_flag
                assert not record.modified_winners.tie_flag


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(sigma_l=0)
    with pytest.raises(ValueError):
        SearchParams(sigma_w=-1)
    params = SearchParams(sigma_l=4, sigma_w=2)
    assert params.sigma_l == 4 and params.sigma_w == 2


def test_search_ilvb_respects_sigma(east_ayrshire):
    coarse = search_ilvb(east_ayrshire, "scottish", SearchParams(sigma_l=2))
    fine = search_ilvb(east_ayrshire, "scottish", SearchParams(sigma_l=10))
    assert {r.removed.total for r in coarse} <= {r.removed.total for r in fine} | {
        28,
        56,
    }
    assert len(fine) >= len(coarse)


# -------------------------------------------------------------- party swaps


def test_party_swaps_east_ayrshire(east_ayrshire):
    records = search_party_swaps(east_ayrshire, "scottish", criterion="ILVB")
    assert records
    for record in records:
        assert record.party_swap
        assert record.criterion == "ILVB"
        # Ross (2, SNP) leaves the committee and Scott (3, Lab) enters it
        before = record.original_winners.members
        after = record.modified_winners.members
        assert before - after == {2}
        assert after - before == {3}
    parties = {c.id: c.party for c in east_ayrshire.profile.candidates}
    winners_before = records[0].original_winners.members
    winners_after = records[0].modified_winners.members

    def seats(winners, party):
        return sum(1 for c in winners if parties[c] == party)

    assert seats(winners_after, "SNP") == seats(winners_before, "SNP") - 1
    assert seats(winners_after, "Lab") == seats(winners_before, "Lab") + 1


def test_party_swaps_exclude_involved_parties(east_ayrshire):
    # removed ballots must never rank anyone from either affected party,
    # so on this ward only the Conservative bullets qualify
    records = search_party_swaps(east_ayrshire, "scottish", criterion="ILVB")
    parties = {c.id: c.party for c in east_ayrshire.profile.candidates}
    for record in records:
        profile = east_ayrshire.profile
        for index, _ in record.removed.entries:
            for cid in profile.ballots[index].ranking:
                assert parties[cid] not in ("SNP", "Lab")


def test_party_swaps_validates_criterion(east_ayrshire):
    with pytest.raises(ValueError):
        search_party_swaps(east_ayrshire, "scottish", criterion="NOPE")


def test_search_records_are_the_public_checks_records(east_ayrshire, north_ayrshire):
    # a search adds nothing to its check's record but the party-swap flag
    searched = Counter()
    for election, method in product((east_ayrshire, north_ayrshire), AUDIT_METHODS):
        session = ProbeSession(election, method)
        for criterion in criteria.CRITERIA:
            if criterion == "ILVB":
                plain = search_ilvb(election, method, session=session)
            else:
                plain = search_iwvb(
                    election, method, star_mode=criterion == "IWVB_STAR",
                    session=session,
                )
            swaps = search_party_swaps(
                election, method, criterion=criterion, session=session
            )
            check = criteria.CHECKS[criterion]
            for record in plain:
                assert record == check(election, method, record.removed)
            for record in swaps:
                fresh = check(election, method, record.removed)
                assert record == replace(fresh, party_swap=True)
            searched[method] += len(plain) + len(swaps)
    # 19 plain records and 9 party swaps; EAR and CC find none on these wards
    assert searched == Counter(scottish=18, meek=10)


def test_search_rejects_session_of_another_election_or_rule(
    east_ayrshire, north_ayrshire
):
    session = ProbeSession(east_ayrshire, "scottish")
    with pytest.raises(PreconditionError):
        search_ilvb(north_ayrshire, "scottish", session=session)
    with pytest.raises(PreconditionError):
        search_iwvb(east_ayrshire, "ear", session=session)


def test_session_builds_each_pool_and_order_once(monkeypatch):
    # The pools live on the profile, so the sessions of all five rules over
    # one election share them. A fresh load keeps pools built by other tests
    # out of the counts.
    election = load_election(EAST_AYRSHIRE)
    pools, orders = Counter(), Counter()
    fractions, unions = Counter(), Counter()
    real_pool, real_order = criteria.ballots_ranking_only, criteria._transfer_order
    real_fraction, real_union = criteria.fraction_of, criteria.selection_ranked_union

    def counting_pool(profile, allowed):
        pools[frozenset(allowed)] += 1
        return real_pool(profile, allowed)

    def counting_order(profile, committee, a, b):
        orders[(tuple(committee), a, b)] += 1
        return real_order(profile, committee, a, b)

    def counting_fraction(selection, i, sigma):
        fractions[(selection, i, sigma)] += 1
        return real_fraction(selection, i, sigma)

    def counting_union(profile, selection):
        unions[selection] += 1
        return real_union(profile, selection)

    monkeypatch.setattr(criteria, "ballots_ranking_only", counting_pool)
    monkeypatch.setattr(criteria, "_transfer_order", counting_order)
    monkeypatch.setattr(criteria, "fraction_of", counting_fraction)
    monkeypatch.setattr(criteria, "selection_ranked_union", counting_union)
    # the public checks re-verifying each record compute their own unions
    monkeypatch.setattr(criteria, "_verified", lambda *args: [])
    # no pair is skipped, so every rule builds its pools and orders
    monkeypatch.setattr(criteria, "PROVEN_IMMUNE", frozenset())
    winner_sets = set()
    for method in AUDIT_METHODS:
        session = ProbeSession(election, method)
        winner_sets.add(session.winners)
        search_ilvb(election, method, session=session)
        for star in (False, True):
            search_iwvb(election, method, star_mode=star, session=session)
        for criterion in ("ILVB", "IWVB", "IWVB_STAR"):
            search_party_swaps(election, method, criterion=criterion,
                               session=session)
    assert pools and orders and fractions and unions
    assert max(pools.values()) == max(orders.values()) == 1
    assert max(fractions.values()) == max(unions.values()) == 1
    # the rules' winners differ, and each winner set has its own orders
    assert len(winner_sets) > 1
    assert {
        frozenset(committee) | {a} for committee, a, _ in orders
    } == winner_sets


def cc_probed_session(election, tag):
    """A session after every search of one CC rule has probed through it."""
    session = ProbeSession(election, tag)
    search_ilvb(election, tag, session=session)
    for star in (False, True):
        search_iwvb(election, tag, star_mode=star, session=session)
    for criterion in ("ILVB", "IWVB", "IWVB_STAR"):
        search_party_swaps(election, tag, criterion=criterion, session=session)
    return session


def mirrored(election):
    """The election with every ballot type paired with its 0 <-> 1 mirror image."""
    swap = {0: 1, 1: 0}
    ballots = Counter()
    for bt in election.profile.ballots:
        for ranking in (bt.ranking, tuple(swap.get(c, c) for c in bt.ranking)):
            ballots[ranking] += bt.multiplicity
    names = [c.name for c in election.profile.candidates]
    return make_election(names, sorted(ballots.items()), election.k)


def cc_equivalence_elections(east_ayrshire, north_ayrshire):
    for ward in (east_ayrshire, north_ayrshire):
        yield ward
        yield Election(ward.profile, 1)
    for family in FAMILIES:
        for k in (2, 3):
            try:
                yield generate(GeneratorSpec(family, k)).election
            except PreconditionError:
                pass  # the family has no construction with k seats
    for seed in (90125, 4821):
        rng = random.Random(seed)
        for _ in range(25):
            election = random_profile(rng, m_max=6, v_max=40, k_max=3)
            for k in sorted({1, election.k}):
                yield Election(election.profile, k)
                if election.profile.m > 2:
                    yield mirrored(Election(election.profile, k))


def test_session_cc_probes_match_definition(east_ayrshire, north_ayrshire, monkeypatch):
    # every probe the searches make, scored by difference from the base
    # scores, gives the argmax of cc_score on the reduced profile; the
    # searches also probe the pools PROVEN_IMMUNE lets them skip, so the
    # difference scores meet loser-only and winner-subset removals alike
    monkeypatch.setattr(criteria, "PROVEN_IMMUNE", frozenset())
    probes = tied = single_seat = 0
    for election in cc_equivalence_elections(east_ayrshire, north_ayrshire):
        profile, k = election.profile, election.k
        for model in ("om", "pm"):
            session = cc_probed_session(election, f"cc-{model}")
            assert session.before == reference_cc(profile, k, model)
            for selection, winners in session._memo.items():
                reduced = remove_ballots(profile, selection)
                assert winners == reference_cc(reduced, k, model), (
                    election.title, model, selection
                )
                probes += 1
                tied += winners.tie_flag
                single_seat += k == 1
    assert probes > 1000 and tied and single_seat


@pytest.mark.parametrize("tag", ["scottish", "cc-om"])
def test_searches_skip_a_tie_flagged_base(east_ayrshire, monkeypatch, tag):
    # mirroring makes candidates 0 and 1 interchangeable, so a base that
    # seats one of them and not the other is tie-flagged
    if tag == "scottish":
        election = mirrored(east_ayrshire)
    else:
        election = mirrored(make_election(["a", "b", "c"], [((0,), 5), ((2,), 1)], 1))
    scored = Counter()

    def counting(name, real):
        def run(*args, **kwargs):
            scored[name] += 1
            return real(*args, **kwargs)
        return run

    # a Scottish probe runs the session's count from methods.COUNTS unlogged
    for rule, count in list(methods.COUNTS.items()):
        monkeypatch.setitem(methods.COUNTS, rule, counting(rule, count))
    session = ProbeSession(election, tag)
    assert session.before.tie_flag
    base_counts = Counter(scored)
    assert base_counts == (Counter(scottish=1) if tag == "scottish" else Counter())
    monkeypatch.setattr(criteria, "tabulate", counting("tabulate", criteria.tabulate))
    monkeypatch.setattr(
        CCScores, "winners_without", counting("cc", CCScores.winners_without)
    )
    assert search_ilvb(election, tag, session=session) == []
    for star in (False, True):
        assert search_iwvb(election, tag, star_mode=star, session=session) == []
    for criterion in ("ILVB", "IWVB", "IWVB_STAR"):
        assert search_party_swaps(
            election, tag, criterion=criterion, session=session
        ) == []
    assert scored == base_counts
    assert not session._memo


@pytest.mark.parametrize("tag", ["cc-om", "cc-pm"])
def test_cc_searches_skip_proven_immune_criteria(
    east_ayrshire, north_ayrshire, monkeypatch, tag
):
    # ILVB and IWVB_STAR, party swaps included, score no removal for the
    # coverage committees; IWVB and a callable rule are still searched
    scored = []
    real = CCScores.winners_without

    def counting(self, selection):
        scored.append(selection)
        return real(self, selection)

    monkeypatch.setattr(CCScores, "winners_without", counting)
    for election in (east_ayrshire, north_ayrshire):
        session = ProbeSession(election, tag)
        assert not session.before.tie_flag
        assert search_ilvb(election, tag, session=session) == []
        assert search_ilvb(election, tag) == []
        assert search_iwvb(election, tag, star_mode=True, session=session) == []
        for criterion in ("ILVB", "IWVB_STAR"):
            assert search_party_swaps(
                election, tag, criterion=criterion, session=session
            ) == []
        assert not scored
        search_iwvb(election, tag, session=session)
        assert scored
        scored.clear()

    counts = []

    def rule(election):
        counts.append(election)
        return tabulate(election, tag)

    assert search_ilvb(east_ayrshire, rule) == []
    assert len(counts) > 1


@pytest.mark.parametrize("method", ["scottish", "cc-om", "cc-pm"])
def test_session_winners_after_rejects_bad_removals(east_ayrshire, method):
    session = ProbeSession(east_ayrshire, method)
    ballots = east_ayrshire.profile.ballots
    for selection in (
        BallotSelection(((len(ballots), 1),)),
        BallotSelection(((0, ballots[0].multiplicity + 1),)),
        BallotSelection(tuple((i, bt.multiplicity) for i, bt in enumerate(ballots))),
    ):
        with pytest.raises(InputError) as from_session:
            session.winners_after(selection)
        with pytest.raises(InputError) as from_removal:
            remove_ballots(east_ayrshire.profile, selection)
        assert str(from_session.value) == str(from_removal.value)


@pytest.mark.parametrize("tag", ["cc-om", "cc-pm"])
def test_session_scores_cc_probes_without_tabulating(
    east_ayrshire, monkeypatch, tag
):
    # only re-verification (criteria._verified, the public checks' own
    # computation) may tabulate or remove ballots; the session scores every probe from its own rows,
    # those of the pools PROVEN_IMMUNE lets the searches skip included
    monkeypatch.setattr(criteria, "PROVEN_IMMUNE", frozenset())
    outside_checks = Counter()
    verifying = []

    def counting(name, real):
        def run(*args, **kwargs):
            if not verifying:
                outside_checks[name] += 1
            return real(*args, **kwargs)
        return run

    def flagged(verified):
        def run(*args, **kwargs):
            verifying.append(True)
            try:
                return verified(*args, **kwargs)
            finally:
                verifying.pop()
        return run

    for name in ("tabulate", "remove_ballots"):
        monkeypatch.setattr(criteria, name, counting(name, getattr(criteria, name)))
    monkeypatch.setattr(criteria, "_verified", flagged(criteria._verified))
    session = cc_probed_session(east_ayrshire, tag)
    assert len(session._memo) > 20
    assert not outside_checks
    # the integer-counting rules tabulate only their base count; their
    # count from methods.COUNTS scores every distinct probe once, unlogged
    probes = Counter()

    def counting_count(rule, count):
        def run(profile, mults, k, log=False, **settings):
            if not log:
                probes[rule] += 1
            return count(profile, mults, k, log, **settings)
        return run

    for rule, count in list(methods.COUNTS.items()):
        monkeypatch.setitem(methods.COUNTS, rule, counting_count(rule, count))
    for rule in methods.COUNTS:
        session = cc_probed_session(east_ayrshire, rule)
        assert outside_checks == Counter(tabulate=1)
        assert probes == Counter({rule: len(session._memo)})
        assert len(session._memo) > 20
        outside_checks.clear()
        probes.clear()


# ------------------------------------------- probes of the integer counts


def count_equivalence_elections(east_ayrshire, north_ayrshire):
    yield east_ayrshire
    yield north_ayrshire
    for family in FAMILIES:
        for k in (2, 3, 4):
            try:
                yield generate(GeneratorSpec(family, k)).election
            except PreconditionError:
                pass  # the family has no construction with k seats
    for seed in (11, 2024, 31337):
        yield seeded_ward(seed, m=7, voters=120)


def probe_removals(rng, profile, n):
    """n seeded random removals, then the edge cases, each leaving a ballot.

    The edge cases take every ballot of the longest rankings (Meek's L
    shrinks), every first preference of each candidate, and all but one
    ballot of the profile.
    """
    total = profile.total_ballots
    ballots = profile.ballots
    removals = []
    for _ in range(n):
        removals.append(BallotSelection(tuple(
            (t, rng.randint(1, bt.multiplicity))
            for t, bt in enumerate(ballots) if rng.random() < 0.3
        )))
    longest = max(len(bt.ranking) for bt in ballots)
    removals.append(BallotSelection(tuple(
        (t, bt.multiplicity)
        for t, bt in enumerate(ballots) if len(bt.ranking) == longest
    )))
    for c in range(profile.m):
        removals.append(BallotSelection(tuple(
            (t, bt.multiplicity)
            for t, bt in enumerate(ballots) if bt.ranking[0] == c
        )))
    kept = rng.randrange(len(ballots))
    removals.append(BallotSelection(tuple(
        (t, bt.multiplicity - (t == kept)) for t, bt in enumerate(ballots)
    )))
    return [sel for sel in removals if sel and sel.total < total]


def test_session_count_probes_match_tabulating_the_reduced_election(
    east_ayrshire, north_ayrshire
):
    # every unlogged probe of Scottish, Meek and EAR gives the winners and
    # tie flag of tabulating the election that remove_ballots leaves
    rng = random.Random(1717)
    probes = tied = shrunk = single = 0
    for election in count_equivalence_elections(east_ayrshire, north_ayrshire):
        profile, k = election.profile, election.k
        longest = max(len(bt.ranking) for bt in profile.ballots)
        removals = probe_removals(rng, profile, 8)
        for tag in methods.COUNTS:
            session = ProbeSession(election, tag)
            for selection in removals:
                reduced = remove_ballots(profile, selection)
                want = tabulate(Election(reduced, k), tag).winners
                assert session.winners_after(selection) == want, (
                    election.title, tag, selection
                )
                probes += 1
                tied += want.tie_flag
                shrunk += max(len(bt.ranking) for bt in reduced.ballots) < longest
                single += reduced.total_ballots == 1
    assert probes > 1000 and tied and shrunk and single


@pytest.mark.parametrize("tag", ["scottish", "meek", "ear"])
def test_session_count_probes_build_no_round_log(
    east_ayrshire, north_ayrshire, monkeypatch, tag
):
    rng = random.Random(4242)
    cases = []
    for election in (east_ayrshire, north_ayrshire):
        profile = election.profile
        for selection in probe_removals(rng, profile, 4):
            reduced = Election(remove_ballots(profile, selection), election.k)
            cases.append((election, selection, tabulate(reduced, tag).winners))
    sessions = {e: ProbeSession(e, tag) for e in (east_ayrshire, north_ayrshire)}

    def refuse(*args, **kwargs):
        raise AssertionError("a probe built part of a round log")

    for module, name in (
        (methods, "Round"), (methods, "RoundEvent"), (methods, "RoundLog"),
        (methods, "RationalsOver"), (rationals, "RationalsOver"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for election, selection, want in cases:
        assert sessions[election].winners_after(selection) == want


# ------------------------------------------------------------------- oracle


def small_flip_election():
    # one seat; removing 1 or 2 of the two b-bullets flips a -> c
    return make_election(
        ["a", "b", "c"],
        [((0, 1, 2), 7), ((0, 2, 1), 9), ((1, 2, 0), 12), ((2, 0, 1), 13),
         ((1,), 2)],
        1,
    )


def test_oracle_ilvb_exhaustive_small_case():
    election = small_flip_election()
    records = oracle_ilvb(election, "scottish")
    # the oracle keeps tied outcomes as well; both removal sizes appear
    assert sorted(r.removed.total for r in records) == [1, 2]
    for record in records:
        assert record.modified_winners.members == {2}


def test_oracle_contains_heuristic_findings():
    election = small_flip_election()
    heuristic = search_ilvb(election, "scottish")
    oracle = oracle_ilvb(election, "scottish")
    assert heuristic
    for record in heuristic:
        assert record in oracle


def test_oracle_budget_refusal(east_ayrshire):
    with pytest.raises(OracleBudgetError):
        oracle_ilvb(east_ayrshire, "scottish", max_budget=1000)


def test_oracle_empty_when_rule_is_immune():
    election = small_flip_election()
    assert oracle_ilvb(election, "cc-om") == []
    assert oracle_ilvb(election, "cc-pm") == []


# --------------------------------------------------------------------- JSON


def test_record_to_json_shape(east_ayrshire):
    record = search_ilvb(east_ayrshire, "scottish")[0]
    doc = record_to_json(record, east_ayrshire.profile, election_id="ea-ward5")
    assert set(doc) == {
        "election_id",
        "criterion",
        "method",
        "removed",
        "winners_before",
        "winners_after",
        "party_swap",
    }
    assert doc["election_id"] == "ea-ward5"
    assert doc["criterion"] == "ILVB"
    assert doc["winners_before"] == sorted(golden.EA_WINNERS)
    assert all(set(e) == {"ranking", "count"} for e in doc["removed"])
    assert doc["party_swap"] is False
    json.dumps(doc)  # must be directly serializable


def test_verify_record_refuses_a_document_that_is_not_a_whole_record(east_ayrshire):
    record = search_ilvb(east_ayrshire, "scottish")[0]
    doc = record_to_json(record, east_ayrshire.profile, election_id="ea")
    assert criteria.is_record(doc) and verify_record(doc, east_ayrshire)
    cut = [{k: v for k, v in doc.items() if k != key} for key in doc]
    retyped = [{**doc, key: None} for key in doc]
    entries = [{"ranking": [0]}, {"ranking": [0], "count": "22"}, [[0], 22]]
    removed = [{**doc, "removed": [entry]} for entry in entries]
    for bad in (*cut, *retyped, *removed, [doc], "ea", {"election_id": "ea"}):
        assert not criteria.is_record(bad)
        with pytest.raises(InputError):
            verify_record(bad, east_ayrshire)


def single_edits(doc):
    """(kind, record) for each record one edit away from doc: either winner
    list replaced by the other, one removal count lowered by one, or the
    criterion swapped."""
    yield "winners", {**doc, "winners_after": doc["winners_before"]}
    yield "winners", {**doc, "winners_before": doc["winners_after"]}
    for i, entry in enumerate(doc["removed"]):
        removed = list(doc["removed"])
        removed[i] = {**entry, "count": entry["count"] - 1}
        yield "count", {**doc, "removed": removed}
    for criterion in criteria.CRITERIA:
        if criterion != doc["criterion"]:
            yield "criterion", {**doc, "criterion": criterion}


def states_a_violation(election, doc) -> bool:
    """Whether doc's removal, tabulated before and after, gives doc's winners
    and meets doc's criterion as the README defines it."""
    selection = selection_from_rankings(
        election.profile, [(e["ranking"], e["count"]) for e in doc["removed"]]
    )
    before = tabulate(election, doc["method"]).winners
    reduced = Election(remove_ballots(election.profile, selection), election.k)
    after = tabulate(reduced, doc["method"]).winners
    if (before, after) != tuple(
        WinnerSet(frozenset(doc[key])) for key in ("winners_before", "winners_after")
    ):
        return False
    ranked = selection_ranked_union(election.profile, selection)
    w, a = before.members, after.members
    return {
        "ILVB": not ranked & w and a != w,
        "IWVB": ranked < w and bool((w - ranked) - a),
        "IWVB_STAR": ranked < w and ranked <= a and a != w,
    }[doc["criterion"]]


def test_verify_record_rechecks_audit_records_and_their_edits(
    east_ayrshire, north_ayrshire
):
    # Every record of a party-swap audit of both wards verifies as it comes
    # back from JSON. An edited record verifies exactly when it still states
    # a violation, as two fresh tabulations and the definitions decide. A
    # winner list edited never verifies, and a swap between ILVB and either
    # IWVB form breaks the check's precondition. The other edits give true
    # records here: on these wards every removal one ballot smaller leaves
    # the same committee, and each IWVB record is an IWVB_STAR one and back.
    outcomes = Counter()
    for election, method in product((east_ayrshire, north_ayrshire), AUDIT_METHODS):
        records, _ = _audit_one(
            election, method, criteria.CRITERIA, SearchParams(), True
        )
        for record in records:
            doc = json.loads(json.dumps(record_to_json(record, election.profile)))
            outcomes["unedited", verify_record(doc, election)] += 1
            for kind, edited in single_edits(doc):
                try:
                    verified = verify_record(edited, election)
                except InputError:
                    verified = "raised"
                else:
                    assert verified == states_a_violation(election, edited), edited
                outcomes[kind, verified] += 1
    assert outcomes == {
        ("unedited", True): 28,
        ("winners", False): 56,
        ("count", True): 28,
        ("criterion", True): 14,
        ("criterion", "raised"): 42,
    }
