import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from blocaudit import (
    FAMILIES,
    BallotSelection,
    Election,
    EnumerationGuardError,
    GeneratorSpec,
    MeekNonConvergenceError,
    PreconditionError,
    ScoringVector,
    ballots_ranking_only,
    borda_vector,
    cc_score,
    droop_quota,
    fraction_of,
    generate,
    make_election,
    meek_stv,
    plurality_vector,
    positional_scores,
    remove_ballots,
    result_to_json,
    selection_from_rankings,
    tabulate,
)
import blocaudit.methods as methods
import blocaudit.rationals as rationals
from blocaudit.methods import RoundEvent, TieEvent
from blocaudit.rationals import ONE, ZERO, rational
from cc_reference import reference_cc
from conftest import (
    assert_rounds_match, assert_same_count, random_profile, round1, seeded_ward,
)
from ear_reference import reference_ear
from meek_reference import reference_meek_stv
from scottish_reference import reference_scottish

# ------------------------------------------------------------ real wards


def test_scottish_east_ayrshire_published_rounds(east_ayrshire):
    winners, log = tabulate(east_ayrshire, "scottish")
    assert log.quota == golden.EA_QUOTA
    assert winners.members == golden.EA_WINNERS
    assert not winners.tie_flag
    assert len(log.rounds) == len(golden.EA_ROUNDS)
    assert_rounds_match(log, golden.EA_ROUNDS)


def test_scottish_east_ayrshire_without_holden_bullets(east_ayrshire):
    ranking, count = golden.EA_MOD_REMOVED
    selection = selection_from_rankings(east_ayrshire.profile, [(ranking, count)])
    reduced = Election(
        remove_ballots(east_ayrshire.profile, selection), east_ayrshire.k
    )
    winners, log = tabulate(reduced, "scottish")
    assert log.quota == golden.EA_MOD_QUOTA
    assert winners.members == golden.EA_MOD_WINNERS
    assert not winners.tie_flag
    assert_rounds_match(log, golden.EA_MOD_ROUNDS)
    # the removal costs an incumbent their seat despite only ever ranking
    # a losing candidate
    assert 2 in golden.EA_WINNERS and 2 not in winners.members


def test_scottish_north_ayrshire_published_rounds(north_ayrshire):
    winners, log = tabulate(north_ayrshire, "scottish")
    assert log.quota == golden.NA_QUOTA
    assert winners.members == golden.NA_WINNERS
    assert not winners.tie_flag
    assert len(log.rounds) == len(golden.NA_ROUNDS)
    assert_rounds_match(log, golden.NA_ROUNDS)


def test_scottish_north_ayrshire_without_mcdonald_bullets(north_ayrshire):
    ranking, count = golden.NA_MOD_REMOVED
    selection = selection_from_rankings(north_ayrshire.profile, [(ranking, count)])
    reduced = Election(
        remove_ballots(north_ayrshire.profile, selection), north_ayrshire.k
    )
    winners, log = tabulate(reduced, "scottish")
    assert log.quota == golden.NA_MOD_QUOTA
    assert winners.members == golden.NA_MOD_WINNERS
    assert not winners.tie_flag
    assert_rounds_match(log, golden.NA_MOD_ROUNDS)
    # removing ballots that ranked only a winner costs a different winner
    # their seat (Stephen out, Johnson in)
    assert 6 not in winners.members and 4 in winners.members


# ------------------------------------------------ Scottish stage machine


def test_scottish_surplus_value_is_exact():
    # 10 ballots a>b, 2 bullets b, 3 bullets c; k=2; V=15, quota=6.
    # a elected with surplus 4; each of the 10 ballots transfers at 4/10.
    election = make_election(
        ["a", "b", "c"], [((0, 1), 10), ((1,), 2), ((2,), 3)], 2
    )
    winners, log = tabulate(election, "scottish")
    assert log.quota == 6
    assert winners.members == {0, 1}
    round2 = log.rounds[1].totals
    assert round2[1] == 2 + 10 * rational(4, 10)
    assert round2[0] == 6


def test_scottish_surplus_to_exhaustion():
    # a's surplus has nowhere to go: bullets exhaust it
    election = make_election(["a", "b", "c"], [((0,), 12), ((1,), 4), ((2,), 2)], 2)
    winners, log = tabulate(election, "scottish")
    assert winners.members == {0, 1}
    assert log.rounds[1].exhausted == 12 - log.quota


def test_scottish_elimination_tie_breaks_to_lowest_id():
    election = make_election(
        ["a", "b", "c"], [((0,), 5), ((1,), 3), ((2,), 3)], 1
    )
    winners, log = tabulate(election, "scottish")
    assert any(ev.kind == "elimination" for ev in log.tie_events)
    event = next(ev for ev in log.tie_events if ev.kind == "elimination")
    assert set(event.tied) == {1, 2}
    assert event.chosen == (1,)
    # both tied candidates lose in the end, so the tie never decided
    # membership of the winner set
    assert winners.members == {0}
    assert not winners.tie_flag


def test_scottish_tie_flag_set_when_tie_decides_seats():
    # dead heat for a single seat: the id tie-break picks the winner
    election = make_election(["a", "b"], [((0,), 5), ((1,), 5)], 1)
    winners, log = tabulate(election, "scottish")
    assert winners.tie_flag
    assert len(winners.members) == 1
    # neither reaches the quota 6, so the tie is broken by eliminating a. A
    # Scottish count never logs an "election" tie: with the integer quota
    # floor(V/(k+1)) + 1, at most k candidates ever hold a quota
    assert log.tie_events == [TieEvent(1, "elimination", (0, 1), (0,))]
    assert winners.members == {1}


# The tie paths not pinned above, of the shared election and elimination
# helpers and of Scottish's surplus order: (rule, candidates, ballots, k,
# tie events, winners, tie flag).
TIE_PATHS = {
    # a is elected at once and its keep halves to 4/8, which brings b and c
    # to the quota 4 together with one seat left
    "meek-election-last-seat": (
        "meek", ["a", "b", "c"],
        [((0, 1), 4), ((0, 2), 4), ((1,), 2), ((2,), 2)], 2,
        [TieEvent(2, "election", (1, 2), (1,))], {0, 1}, True,
    ),
    # a and b both reach the quota 4 with a surplus of 1; a's goes first
    # and lifts c to the quota
    "scottish-surplus-order": (
        "scottish", ["a", "b", "c", "d"],
        [((0, 2), 5), ((1, 3), 5), ((2,), 3), ((3,), 2)], 3,
        [TieEvent(1, "surplus_order", (0, 1), (0,))], {0, 1, 2}, False,
    ),
    # nobody reaches the quota 5 and c, d, e hold one vote each
    "meek-three-way-elimination": (
        "meek", ["a", "b", "c", "d", "e"],
        [((0,), 4), ((1,), 3), ((2, 3), 1), ((3,), 1), ((4,), 1)], 1,
        [TieEvent(1, "elimination", (2, 3, 4), (2,))], {0}, False,
    ),
}


@pytest.mark.parametrize("case", TIE_PATHS)
def test_tie_paths_log_the_exact_event(case):
    method, names, ballots, k, ties, members, flag = TIE_PATHS[case]
    winners, log = tabulate(make_election(names, ballots, k), method)
    assert log.tie_events == ties
    assert winners.members == members
    assert winners.tie_flag is flag


def sorted_take_first(candidates, n, value, kind, round_number, tie_events):
    """_take_first by its definition: sort best first, cut after n."""
    order = sorted(candidates, key=lambda c: (-value(c), c))
    chosen = order[:n]
    if n < len(order) and value(order[n]) == value(order[n - 1]):
        cut = value(order[n - 1])
        tied = tuple(c for c in order if value(c) == cut)
        taken = tuple(c for c in chosen if value(c) == cut)
        tie_events.append(TieEvent(round_number, kind, tied, taken))
    return chosen


def test_take_first_matches_sorting_every_candidate():
    # few distinct values, so ties at the cut are common; the candidates
    # come as a set, as the counts pass their hopefuls, or in any order
    rng = random.Random(5150)
    ties = Counter()
    for _ in range(3000):
        m = rng.randint(0, 7)
        values = {c: rng.randint(-2, 2) for c in rng.sample(range(12), m)}
        pool = list(values)
        rng.shuffle(pool)
        candidates = set(pool) if rng.random() < 0.5 else pool
        n = rng.randint(1, m + 2)
        got, want = [], []
        taken = methods._take_first(
            candidates, n, values.__getitem__, "election", 3, got
        )
        assert taken == sorted_take_first(
            pool, n, values.__getitem__, "election", 3, want
        )
        assert got == want
        ties["one" if n == 1 else "several"] += bool(want)
        ties["empty"] += not pool
        ties["all"] += n >= len(pool)
    assert min(ties.values()) > 50


def test_eliminate_lowest_matches_sorting_the_hopefuls():
    # few distinct totals, so the lowest is often tied
    rng = random.Random(8128)
    ties = 0
    for _ in range(3000):
        totals = [rng.randint(0, 3) for _ in range(12)]
        hopefuls = set(rng.sample(range(12), rng.randint(1, 8)))
        order = sorted(hopefuls, key=lambda c: (totals[c], c))
        tied = tuple(c for c in order if totals[c] == totals[order[0]])
        want = [TieEvent(4, "elimination", tied, tied[:1])] if len(tied) > 1 else []
        left = hopefuls - {order[0]}
        events, got = [], []
        out = methods._eliminate_lowest(totals, hopefuls, 4, events, got)
        assert out == order[0]
        assert got == want
        assert events == [RoundEvent("eliminated", out)]
        assert hopefuls == left
        ties += bool(want)
    assert ties > 300


def test_scottish_all_remaining_fill_seats():
    # after one elimination, hopefuls == open seats elects the rest
    # even though nobody reaches quota
    election = make_election(
        ["a", "b", "c", "d"], [((0,), 8), ((1,), 7), ((2,), 6), ((3,), 2)], 3
    )
    winners, log = tabulate(election, "scottish")
    assert winners.members == {0, 1, 2}
    assert log.quota == 6  # 23 // 4 + 1; c sits on quota exactly


def test_scottish_round_conservation(east_ayrshire, north_ayrshire):
    for election in (east_ayrshire, north_ayrshire):
        _, log = tabulate(election, "scottish")
        v = election.profile.total_ballots
        for rnd in log.rounds:
            assert sum(rnd.totals.values(), ZERO) + rnd.exhausted == v


# -------------------------------------------------------------------- Meek


def independent_meek(election, eps=1e-9):
    """Float reimplementation of the keep-factor count, used as an oracle.

    Structured differently from the production code on purpose: ballots
    are re-walked from scratch every iteration and convergence is judged
    in floating point, so agreement is meaningful.
    """
    profile = election.profile
    k = election.k
    v_total = float(profile.total_ballots)
    cands = [c.id for c in profile.candidates]
    keep = {c: 1.0 for c in cands}
    status = {c: "hopeful" for c in cands}

    def distribute():
        totals = {c: 0.0 for c in cands}
        exhausted = 0.0
        for bt in profile.ballots:
            weight = float(bt.multiplicity)
            for c in bt.ranking:
                if status[c] == "excluded":
                    continue
                take = weight * keep[c]
                totals[c] += take
                weight -= take
                if weight <= 0:
                    break
            exhausted += weight
        return totals, exhausted

    for _ in range(100_000):
        elected = [c for c in cands if status[c] == "elected"]
        hopeful = [c for c in cands if status[c] == "hopeful"]
        if len(elected) == k:
            return frozenset(elected)
        if len(elected) + len(hopeful) <= k:
            return frozenset(elected + hopeful)
        totals, exhausted = distribute()
        quota = (v_total - exhausted) / (k + 1)
        crossers = [c for c in hopeful if totals[c] >= quota - 1e-12]
        if crossers:
            ordered = sorted(crossers, key=lambda c: (-totals[c], c))
            for c in ordered[: k - len(elected)]:
                status[c] = "elected"
            continue
        settled = all(
            abs(totals[c] - quota) <= max(1e-7, quota * eps) for c in elected
        )
        if settled:
            low = min(hopeful, key=lambda c: (totals[c], c))
            status[low] = "excluded"
            keep[low] = 0.0
        else:
            for c in elected:
                if totals[c] > 0:
                    keep[c] = min(1.0, keep[c] * quota / totals[c])
    raise AssertionError("oracle failed to converge")


def test_meek_ward_winners_match_independent_implementation(
    east_ayrshire, north_ayrshire
):
    # the keep-factor count genuinely elects different committees than the
    # stage-based count on both real wards; pin the committees and check
    # them against the float oracle
    ea, _ = tabulate(east_ayrshire, "meek")
    assert ea.members == {1, 3, 4}
    assert ea.members == independent_meek(east_ayrshire)
    na, _ = tabulate(north_ayrshire, "meek")
    assert na.members == {0, 4, 5}
    assert na.members == independent_meek(north_ayrshire)


def test_meek_matches_oracle_on_randoms():
    rng = random.Random(90125)
    agreements = 0
    for _ in range(40):
        election = random_profile(rng, m_max=6, v_max=40, k_max=3)
        winners, _ = tabulate(election, "meek")
        if winners.tie_flag:
            continue  # the float oracle has no defined tie behavior
        assert winners.members == independent_meek(election)
        agreements += 1
    assert agreements >= 20


def test_meek_dynamic_quota_shrinks_with_exhaustion():
    # half the ballots are bullets for a; once elected, their residue
    # exhausts and the quota drops below the static one
    election = make_election(
        ["a", "b", "c"], [((0,), 10), ((1,), 5), ((2,), 4)], 2
    )
    winners, log = tabulate(election, "meek")
    assert winners.members == {0, 1}
    final = log.rounds[-1]
    assert final.quota < rational(19, 3)
    assert final.keep_factors is not None
    assert final.keep_factors[0] < ONE


def test_meek_keep_factors_bounded(east_ayrshire):
    # hopeful and elected candidates keep a factor in (0, 1]; excluded
    # candidates are pinned at zero
    _, log = tabulate(east_ayrshire, "meek")
    for rnd in log.rounds:
        for keep in rnd.keep_factors.values():
            assert ZERO <= keep <= ONE


def test_meek_elected_stay_at_or_above_quota(east_ayrshire):
    # keeps only shrink while a total exceeds the quota, so the elected
    # never fall materially below it
    winners, log = tabulate(east_ayrshire, "meek")
    final = log.rounds[-1]
    tolerance = rational(1, 10**6)
    for cid in winners.members:
        assert final.totals[cid] >= final.quota - tolerance


def test_meek_conservation(east_ayrshire):
    _, log = tabulate(east_ayrshire, "meek")
    v = east_ayrshire.profile.total_ballots
    final = log.rounds[-1]
    assert sum(final.totals.values(), ZERO) + final.exhausted == v


def meek_at(election, tolerance):
    """Meek at tolerance, or through tabulate at its default when None."""
    if tolerance is None:
        return tabulate(election, "meek")
    return meek_stv(election, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [None, rational(1, 10**3), rational(1, 10**15)])
def test_meek_round_logs_match_rational_reference_on_wards(
    east_ayrshire, north_ayrshire, tolerance
):
    for election in (east_ayrshire, north_ayrshire):
        assert_same_count(
            meek_at(election, tolerance),
            reference_meek_stv(election, tolerance=tolerance),
        )


def test_meek_round_logs_match_rational_reference_on_randoms():
    for seed in (90125, 4821):
        rng = random.Random(seed)
        for _ in range(40):
            election = random_profile(rng, m_max=6, v_max=40, k_max=3)
            assert_same_count(meek_stv(election), reference_meek_stv(election))


def test_meek_round_logs_match_rational_reference_on_reduced_wards(
    east_ayrshire, north_ayrshire
):
    # the golden removals change which candidates are eliminated, and when
    for ward, (ranking, count) in (
        (east_ayrshire, golden.EA_MOD_REMOVED),
        (north_ayrshire, golden.NA_MOD_REMOVED),
    ):
        selection = selection_from_rankings(ward.profile, [(ranking, count)])
        reduced = Election(remove_ballots(ward.profile, selection), ward.k)
        assert_same_count(meek_stv(reduced), reference_meek_stv(reduced))


def test_meek_round_logs_match_rational_reference_on_long_counts():
    # full rankings over 8-9 candidates: each count eliminates several
    # candidates and moves keep factors below D, so the ballot types are
    # regrouped many times
    rng = random.Random(7306)
    for _ in range(6):
        m = rng.randint(8, 9)
        k = rng.randint(2, 4)
        ballots = {}
        for _ in range(rng.randint(15, 40)):
            ranking = tuple(rng.sample(range(m), m))
            ballots[ranking] = ballots.get(ranking, 0) + rng.randint(1, 30)
        election = make_election(
            [f"c{i}" for i in range(m)], sorted(ballots.items()), k
        )
        got = meek_stv(election)
        assert_same_count(got, reference_meek_stv(election))
        eliminated = [
            ev for rnd in got.log.rounds for ev in rnd.events if ev.kind == "eliminated"
        ]
        assert len(eliminated) >= 3


def test_meek_fixed_and_flowing_paths_match_rational_reference():
    # A path without elected candidates lands in one slot every iteration,
    # and the count sums its weight once per election or elimination: a
    # path whose candidates are all eliminated exhausts all of it, and one
    # ending at a hopeful gives them all of it. A path through elected
    # candidates flows every iteration, each taking their keep factor of
    # what reaches them, among them an elected candidate ranked last, whose
    # remainder exhausts.
    empty = make_election(
        list("abcde"),
        [((0,), 10), ((1,), 8), ((2, 1), 7), ((3,), 3), ((4, 3), 2), ((4,), 2)],
        2,
    )
    got = meek_stv(empty)
    eliminated = {
        ev.candidate
        for rnd in got.log.rounds for ev in rnd.events if ev.kind == "eliminated"
    }
    assert any(set(bt.ranking) <= eliminated for bt in empty.profile.ballots)
    assert_same_count(got, reference_meek_stv(empty))

    ends_elected = make_election(
        list("abcd"),
        [((0,), 30), ((0, 2), 5), ((1, 0), 6), ((1, 2), 4), ((2,), 9), ((3,), 8)],
        2,
    )
    got = meek_stv(ends_elected)
    final = got.log.rounds[-1]
    partial = {c for c in got.winners.members if final.keep_factors[c] < ONE}
    assert any(bt.ranking in {(c,) for c in partial}
               for bt in ends_elected.profile.ballots)
    assert_same_count(got, reference_meek_stv(ends_elected))

    # several paths to one candidate share their partials, so moving them
    # meets partials whose ends an earlier path already emptied
    shared_partials = make_election(
        list("abcdefg"),
        [((0, 1, 2), 13), ((0, 3, 4, 1, 2), 2), ((1, 2), 1), ((2, 0, 1, 3, 4), 1),
         ((2, 0, 4), 40), ((2, 1, 3, 4, 0, 6), 40), ((2, 3, 0, 1), 3),
         ((2, 5, 0, 3, 4, 1, 6), 1), ((2, 6, 5, 3), 100), ((3, 0, 6, 2, 4, 1, 5), 1),
         ((3, 2, 4), 5), ((3, 5, 4, 2, 1, 0, 6), 40), ((4, 0), 5), ((4, 0, 1), 1),
         ((4, 2, 5), 40), ((4, 6), 3), ((5, 6, 3, 1, 4, 0), 3),
         ((6, 2, 3, 4, 1, 0, 5), 5), ((6, 2, 5, 1, 3), 8), ((6, 5), 1),
         ((6, 5, 2, 1, 3, 4, 0), 2)],
        4,
    )
    got = meek_stv(shared_partials)
    assert got.winners.members == {2, 3, 4, 6}
    assert len(got.log.rounds) == 43
    assert_same_count(got, reference_meek_stv(shared_partials))

    for seed in (3, 41, 977):
        for k in (2, 3):
            election = seeded_ward(seed, m=7, k=k, voters=150, stop=0.5)
            assert_same_count(meek_stv(election), reference_meek_stv(election))


def test_meek_candidates_ranking_each_other_elected_together():
    # a and b each reach the quota on first preferences in round 1 and rank
    # each other second, so each one's surplus flows through the other, also
    # elected, on to c or d; both must be elected before any path moves
    election = make_election(
        list("abcde"),
        [((0, 1, 2), 30), ((1, 0, 3), 30), ((2,), 12), ((3,), 11),
         ((4, 2), 10)],
        3,
    )
    got = meek_stv(election)
    first = got.log.rounds[0]
    assert [ev.candidate for ev in first.events if ev.kind == "elected"] == [0, 1]
    assert len(got.log.rounds) > 2
    assert_same_count(got, reference_meek_stv(election))


def buildable(family, k):
    try:
        generate(GeneratorSpec(family, k))
    except PreconditionError:
        return False
    return True


@pytest.mark.parametrize("family, k", [
    (family, k) for family in FAMILIES for k in (2, 3, 4, 5) if buildable(family, k)
])
def test_meek_round_logs_match_rational_reference_on_worst_cases(family, k):
    case = generate(GeneratorSpec(family, k))
    reduced = Election(
        remove_ballots(case.election.profile, case.removal), case.election.k
    )
    for election in (case.election, reduced):
        assert_same_count(tabulate(election, "meek"), reference_meek_stv(election))


# North Ayrshire's Meek count runs 42 keep-factor iterations in all
NA_MEEK_ITERATIONS = 42


def test_meek_iteration_cap_counts_the_whole_count(north_ayrshire):
    result = meek_stv(north_ayrshire, max_iterations=NA_MEEK_ITERATIONS)
    assert result == meek_stv(north_ayrshire)
    # every round of this count is one iteration
    assert len(result.log.rounds) == NA_MEEK_ITERATIONS
    # eliminations split the count into stages, and no stage alone comes
    # near the cap: it binds only because iterations accumulate across them
    stage_ends = [0, NA_MEEK_ITERATIONS] + [
        rnd.number
        for rnd in result.log.rounds
        if any(ev.kind == "eliminated" for ev in rnd.events)
    ]
    stage_ends.sort()
    longest_stage = max(b - a for a, b in zip(stage_ends, stage_ends[1:]))
    assert longest_stage < NA_MEEK_ITERATIONS // 2
    with pytest.raises(MeekNonConvergenceError):
        meek_stv(north_ayrshire, max_iterations=NA_MEEK_ITERATIONS - 1)


def test_meek_log_builds_totals_and_keep_factors_when_read(
    north_ayrshire, monkeypatch
):
    calls = []

    def counting(*args):
        calls.append(args)
        return rational(*args)

    monkeypatch.setattr(methods, "rational", counting)
    monkeypatch.setattr(rationals, "rational", counting)
    rounds = meek_stv(north_ayrshire).log.rounds
    # the initial quota once per count, and each round's quota and exhausted
    # weight: no total and no keep factor
    built = len(calls)
    assert built == 1 + 2 * len(rounds)
    last = rounds[-1]
    assert last.totals[0] == last.totals[0]
    assert last.keep_factors[0] <= ONE
    assert len(calls) == built + 3


def test_tabulate_refuses_settings_of_another_rule(east_ayrshire):
    # a scoring vector is positional's
    sv = plurality_vector(east_ayrshire.profile.m)
    with pytest.raises(PreconditionError):
        tabulate(east_ayrshire, "scottish", sv=sv)


def test_meek_refuses_invalid_settings_before_counting(east_ayrshire):
    # a negative or inexact tolerance or an iteration cap below 1 is an input
    # error, not a count that failed to converge; an int or a rational of
    # the active backend still counts
    for tolerance in (rational(-1), 1e-9, 0.0):
        with pytest.raises(PreconditionError):
            meek_stv(east_ayrshire, tolerance=tolerance)
    for cap in (0, -5):
        with pytest.raises(PreconditionError):
            meek_stv(east_ayrshire, max_iterations=cap)
    want = tabulate(east_ayrshire, "meek").winners
    for tolerance in (1, rational(1, 10**6)):
        assert meek_stv(east_ayrshire, tolerance=tolerance).winners == want


# --------------------------------------------------------------------- EAR


def test_ear_elects_on_first_preferences_when_possible():
    election = make_election(
        ["a", "b", "c"], [((0, 1), 10), ((1,), 2), ((2,), 3)], 2
    )
    winners, log = tabulate(election, "ear")
    assert winners.members == {0, 1}
    assert log.quota == rational(15, 3)


def test_ear_reweights_supporters():
    # 12 voters rank a then b; 6 bullet c. q = 18/3 = 6. a is elected at
    # rank 1 and its supporters shrink by (12-6)/12, leaving b only 6 of
    # derived weight at rank 2 - but c already holds 6 first preferences,
    # so c takes the second seat at rank 1 before b is ever in view.
    election = make_election(["a", "b", "c"], [((0, 1), 12), ((2,), 6)], 2)
    winners, log = tabulate(election, "ear")
    assert log.quota == 6
    assert winners.members == {0, 2}
    assert not winners.tie_flag


def test_ear_rank_threshold_advances():
    election = make_election(
        ["a", "b", "c", "d"],
        [((0, 1), 4), ((1, 0), 4), ((2, 3), 4), ((3, 2), 4)],
        2,
    )
    winners, log = tabulate(election, "ear")
    # nobody holds 16/3 first preferences; threshold must move to 2
    assert any(rnd.threshold and rnd.threshold >= 2 for rnd in log.rounds)
    assert len(winners.members) == 2


def test_ear_fallback_when_no_one_reaches_quota():
    # four bullets, one seat: q = 8/2 = 4 > every candidate's support at
    # any rank, so the final-rank fallback elects the best supported
    election = make_election(
        ["a", "b", "c", "d"], [((0,), 3), ((1,), 2), ((2,), 2), ((3,), 1)], 1
    )
    winners, log = tabulate(election, "ear")
    assert winners.members == {0}
    assert any("rank thresholds exhausted" in note for note in log.notes)


def test_ear_fallback_zeroes_supporters():
    # 3 reaches q = 7/4 at rank 1; nobody else reaches it at any rank, so
    # the fallback fills two seats. Electing 2 zeroes both ballots ranking
    # 2, which takes 1's only support away in the last round.
    election = make_election(
        ["a", "b", "c", "d"],
        [((0,), 1), ((2, 3), 1), ((3,), 4), ((3, 2, 1), 1)],
        3,
    )
    result = tabulate(election, "ear")
    assert_same_count(result, reference_ear(election))
    assert result.winners.members == {0, 2, 3}
    assert [rnd.threshold for rnd in result.log.rounds] == [1, 5, 5]
    assert result.log.notes
    second, third = result.log.rounds[1:]
    assert second.totals[1] == rational(13, 20)
    assert second.totals[2] == rational(33, 20)
    assert third.totals[1] == third.totals[2] == ZERO


def test_ear_exact_quota_zeroes_supporters_before_the_last_rank():
    # q = 20/4 = 5. a (8) is elected at rank 1 and its supporters keep 3/8
    # of their weight; c then holds exactly 5, so its supporters drop to
    # weight 0 with ranks still to come, and at rank 2 b collects 2 bullets
    # + 3 from a's supporters + 0 from c's.
    election = make_election(
        ["a", "b", "c", "d", "e"],
        [((0, 1), 8), ((2, 1), 5), ((3,), 4), ((1,), 2), ((4,), 1)],
        3,
    )
    result = tabulate(election, "ear")
    assert_same_count(result, reference_ear(election))
    assert [rnd.events[0].candidate for rnd in result.log.rounds] == [0, 2, 1]
    assert [rnd.threshold for rnd in result.log.rounds] == [1, 1, 2]
    assert not result.log.notes
    second, third = result.log.rounds[1:]
    assert second.totals[2] == result.log.quota == 5
    assert dict(third.totals) == {0: 3, 1: 5, 2: 0, 3: 4, 4: 1}


def test_ear_round_logs_match_rational_reference_on_wards(
    east_ayrshire, north_ayrshire
):
    for election in (east_ayrshire, north_ayrshire):
        assert_same_count(tabulate(election, "ear"), reference_ear(election))


def test_ear_round_logs_match_rational_reference_on_randoms():
    fallbacks = 0
    for seed in (90125, 4821):
        rng = random.Random(seed)
        for _ in range(60):
            election = random_profile(rng, m_max=7, v_max=60, k_max=4)
            want = reference_ear(election)
            assert_same_count(tabulate(election, "ear"), want)
            fallbacks += bool(want.log.notes)
    assert fallbacks  # the rank-thresholds-exhausted branch is exercised


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "family", [f for f in FAMILIES if f.startswith("EAR_")]
)
def test_ear_round_logs_match_rational_reference_on_worst_cases(family, k):
    case = generate(GeneratorSpec(family, k))
    reduced = Election(
        remove_ballots(case.election.profile, case.removal), case.election.k
    )
    for election in (case.election, reduced):
        assert_same_count(tabulate(election, "ear"), reference_ear(election))


def loser_removals(election, winners):
    """The elections an ILVB search probes: loser-only pools, graded fractions."""
    profile = election.profile
    losers = frozenset(range(profile.m)) - winners
    for b in sorted(losers):
        pool = ballots_ranking_only(profile, losers - {b})
        for i in (1, 4, 7, 10):
            part = fraction_of(pool, i, 10)
            if part and part.total < profile.total_ballots:
                yield Election(remove_ballots(profile, part), election.k)


def test_ear_round_logs_match_rational_reference_on_loser_removals():
    election = seeded_ward(2024)
    probes = 0
    winners = tabulate(election, "ear").winners.members
    for reduced in loser_removals(election, winners):
        assert_same_count(tabulate(reduced, "ear"), reference_ear(reduced))
        probes += 1
    assert probes >= 10


# ------------------------------------- Scottish STV against its reference


def test_scottish_round_logs_match_rational_reference_on_wards(
    east_ayrshire, north_ayrshire
):
    for election in (east_ayrshire, north_ayrshire):
        assert_same_count(tabulate(election, "scottish"), reference_scottish(election))


def test_scottish_round_logs_match_rational_reference_on_randoms():
    transfers = 0
    for seed in (90125, 4821):
        rng = random.Random(seed)
        for _ in range(60):
            election = random_profile(rng, m_max=7, v_max=60, k_max=4)
            want = reference_scottish(election)
            assert_same_count(tabulate(election, "scottish"), want)
            transfers += sum(
                rnd.exhausted > 0 and any(e.kind == "surplus" for e in rnd.events)
                for rnd in want.log.rounds
            )
    # surplus transfers made after some weight had exhausted are exercised
    assert transfers


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "family", [f for f in FAMILIES if f.startswith("STV_")]
)
def test_scottish_round_logs_match_rational_reference_on_worst_cases(family, k):
    case = generate(GeneratorSpec(family, k))
    reduced = Election(
        remove_ballots(case.election.profile, case.removal), case.election.k
    )
    for election in (case.election, reduced):
        assert_same_count(tabulate(election, "scottish"), reference_scottish(election))


def test_scottish_round_logs_match_rational_reference_on_loser_removals():
    election = seeded_ward(2024)
    probes = 0
    winners = tabulate(election, "scottish").winners.members
    for reduced in loser_removals(election, winners):
        assert_same_count(tabulate(reduced, "scottish"), reference_scottish(reduced))
        probes += 1
    assert probes >= 10


# ----------------------------- the log-free counts at zeroed multiplicities


def test_scottish_and_ear_counts_are_exact_at_zeroed_multiplicities(monkeypatch):
    # A probe runs a count over the source types at multiplicities some of
    # which are 0. Its winners and tie events must be the logged count's,
    # and that must be the rational reference's count of the reduced
    # election. _result is where every count hands over its tie events.
    handed = []
    result = methods._result

    def spy(method, quota, elected, rounds, tie_events, notes=()):
        handed.append(list(tie_events))
        return result(method, quota, elected, rounds, tie_events, notes)

    monkeypatch.setattr(methods, "_result", spy)
    references = {"scottish": reference_scottish, "ear": reference_ear}
    seen = Counter()
    rng = random.Random(20261022)
    for _ in range(1000):
        m = rng.randint(3, 7)
        ballots = {
            tuple(rng.sample(range(m), rng.randint(1, m))): rng.randint(1, 4)
            for _ in range(rng.randint(2, 14))
        }
        election = make_election([f"c{i}" for i in range(m)], ballots.items(),
                                 rng.randint(1, min(4, m - 1)))
        profile = election.profile
        mults = [n if rng.random() < 0.7 else 0 for n in profile.multiplicities]
        if not any(mults):
            mults[0] = profile.multiplicities[0]
        gone = BallotSelection(tuple(
            (t, n) for t, (n, left) in enumerate(zip(profile.multiplicities, mults))
            if not left
        ))
        reduced = Election(remove_ballots(profile, gone), election.k)
        for tag, reference in references.items():
            logged = methods.COUNTS[tag](profile, mults, election.k, log=True)
            free = methods.COUNTS[tag](profile, mults, election.k)
            assert free.log is None
            assert free.winners == logged.winners
            assert handed[-1] == logged.log.tie_events
            want = reference(reduced)
            assert_same_count(logged, want)
            seen.update(f"{tag} {e.kind}" for e in want.log.tie_events)
            seen[f"{tag} notes"] += bool(want.log.notes)
    for branch in ("scottish elimination", "scottish surplus_order", "ear notes"):
        assert seen[branch], branch


# ------------------------------------------------------ Chamberlin-Courant


def brute_cc_best(profile, k, model):
    """Independent argmax over committees, used as an oracle."""
    m = profile.m
    best_score, best = None, None
    for committee in itertools.combinations(range(m), k):
        score = 0
        for bt in profile.ballots:
            positions = [bt.ranking.index(c) for c in committee if c in bt.ranking]
            if positions:
                score += (m - 1 - min(positions)) * bt.multiplicity
            elif model == "om":
                score += (m - len(bt.ranking) - 1) * bt.multiplicity
        if best_score is None or score > best_score:
            best_score, best = score, committee
    return frozenset(best)


def test_cc_om_vs_pm_disagree_on_truncation():
    # pessimistic treats unranked as worst, optimistic as "next best":
    # with heavy truncation they pick different committees
    election = make_election(
        ["a", "b", "c", "d"],
        [((0,), 6), ((1, 2), 5), ((3, 2), 4)],
        2,
    )
    om, _ = tabulate(election, "cc-om")
    pm, _ = tabulate(election, "cc-pm")
    assert len(om.members) == len(pm.members) == 2
    score_om = cc_score(election.profile, om.members, "om")
    score_pm = cc_score(election.profile, pm.members, "pm")
    assert score_om >= cc_score(election.profile, pm.members, "om")
    assert score_pm >= cc_score(election.profile, om.members, "pm")


def test_cc_matches_bruteforce_on_randoms():
    rng = random.Random(4821)
    flagged = 0
    for _ in range(60):
        base = random_profile(rng, m_max=6, v_max=30, k_max=3)
        # max() over a single column needs its own path, so k = 1 always runs
        for k in sorted({1, base.k}):
            election = Election(base.profile, k)
            for model in ("om", "pm"):
                winners, _ = tabulate(election, f"cc-{model}")
                expected = brute_cc_best(election.profile, k, model)
                got_score = cc_score(election.profile, winners.members, model)
                want_score = cc_score(election.profile, expected, model)
                assert got_score == want_score
                if not winners.tie_flag:
                    assert winners.members == expected
                # members and tie flag as the argmax of the definition gives them
                assert winners == reference_cc(election.profile, k, model)
                flagged += winners.tie_flag
    assert flagged  # tied committees are among the cases


def test_cc_tables_equal_cc_score_of_every_committee():
    # the whole table, not only its argmax: every committee's score, for
    # profiles holding bullets, complete rankings and random truncations
    rng = random.Random(6217)
    for m in range(2, 11):
        for _ in range(3):
            types = {(rng.randrange(m),): rng.randint(1, 9),
                     tuple(rng.sample(range(m), m)): rng.randint(1, 9)}
            for _ in range(rng.randint(0, 6)):
                depth = rng.randint(1, m)
                types[tuple(rng.sample(range(m), depth))] = rng.randint(1, 9)
            names = [f"c{i}" for i in range(m)]
            profile = make_election(names, sorted(types.items()), 1).profile
            for k in sorted({1, rng.randint(1, m - 1), m - 1}):
                for model in ("om", "pm"):
                    want = [
                        cc_score(profile, committee, model)
                        for committee in itertools.combinations(range(m), k)
                    ]
                    got = methods._cc_scores(profile.ballots, m, k, model)
                    assert got == want, (sorted(types.items()), k, model)


def test_cc_winners_without_equals_cc_of_the_reduced_election():
    # a removal scored as its own table and subtracted from the base gives
    # the reduced election's committee and tie flag, also when it takes
    # several ballots of one type
    rng = random.Random(3390)
    several = 0
    for _ in range(80):
        election = random_profile(rng, m_max=8, v_max=60, k_max=4)
        profile = election.profile
        picked = rng.sample(range(len(profile.ballots)),
                            rng.randint(1, len(profile.ballots)))
        selection = BallotSelection(tuple(
            (t, rng.randint(1, profile.ballots[t].multiplicity)) for t in picked
        ))
        if selection.total == profile.total_ballots:
            continue
        several += any(count > 1 for _, count in selection.entries)
        reduced = Election(remove_ballots(profile, selection), election.k)
        for tag, model in methods.CC_MODELS.items():
            scores = methods.CCScores(election, model)
            want = tabulate(reduced, tag).winners
            assert scores.winners_without(selection) == want
    assert several >= 20


def test_cc_rejects_unknown_model():
    election = make_election(["a", "b"], [((0,), 2), ((1,), 1)], 1)
    with pytest.raises(ValueError):
        methods.CCScores(election, "xx")


def test_cc_enumeration_guard():
    names = [f"c{i}" for i in range(21)]
    ballots = [((i,), 1) for i in range(21)]
    election = make_election(names, ballots, 2)
    with pytest.raises(EnumerationGuardError):
        tabulate(election, "cc-om")


# ------------------------------------------------------ positional scoring


def test_borda_and_plurality_vectors():
    borda = borda_vector(4)
    assert borda.s == (rational(3), rational(2), rational(1), rational(0))
    plurality = plurality_vector(4)
    assert plurality.s[0] == 1 and all(x == 0 for x in plurality.s[1:])


def test_scoring_vector_validation():
    with pytest.raises(ValueError):
        ScoringVector(())
    with pytest.raises(ValueError):
        ScoringVector((0, 1))
    with pytest.raises(ValueError):
        ScoringVector((1, 2))
    with pytest.raises(ValueError):
        ScoringVector((1, -1))


def test_positional_scores_ignore_unranked():
    election = make_election(["a", "b", "c"], [((0, 1), 3), ((2,), 2)], 1)
    scores = positional_scores(election.profile, borda_vector(3))
    assert scores[0] == 6  # 3 ballots x 2 points
    assert scores[1] == 3
    assert scores[2] == 4
    # truncated ballots contribute nothing to unranked candidates
    short = positional_scores(election.profile, ScoringVector((ONE,)))
    assert short[1] == 0


def test_positional_top_k_and_ties():
    election = make_election(
        ["a", "b", "c", "d"], [((0,), 4), ((1,), 3), ((2,), 3), ((3,), 1)], 2
    )
    result = tabulate(election, "positional", sv=plurality_vector(4))
    winners, log = result
    assert winners.members == {0, 1}  # b beats c on the id tie-break
    assert winners.tie_flag
    assert log.tie_events == [TieEvent(1, "election", (1, 2), (1,))]
    assert result_to_json(election, result)["tie_events"] == [
        {"round": 1, "kind": "election", "tied": [1, 2], "chosen": [1]}
    ]


def test_positional_scores_once_per_tabulation(east_ayrshire, monkeypatch):
    calls = []
    real = methods.positional_scores

    def counting(profile, sv):
        calls.append(sv)
        return real(profile, sv)

    monkeypatch.setattr(methods, "positional_scores", counting)
    winners, log = tabulate(east_ayrshire, "positional")
    assert len(calls) == 1
    again = tabulate(east_ayrshire, "positional", sv=calls[0])
    assert winners == again.winners
    assert log.rounds[0].totals == real(east_ayrshire.profile, calls[0])


def test_positional_defaults_to_borda(east_ayrshire):
    explicit, _ = tabulate(
        east_ayrshire, "positional", sv=borda_vector(east_ayrshire.profile.m)
    )
    default, _ = tabulate(east_ayrshire, "positional")
    assert explicit.members == default.members


# ------------------------------------------------------------- invariants


@st.composite
def elections(draw):
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(3, m - 1)))
    n_types = draw(st.integers(1, 5))
    rankings = st.lists(
        st.permutations(range(m)).map(tuple), min_size=n_types, max_size=n_types
    )
    prefixes = [
        r[: draw(st.integers(1, m))] for r in draw(rankings)
    ]
    counts = draw(
        st.lists(st.integers(1, 12), min_size=len(prefixes), max_size=len(prefixes))
    )
    ballots = {}
    for prefix, count in zip(prefixes, counts):
        ballots[prefix] = ballots.get(prefix, 0) + count
    return make_election([f"c{i}" for i in range(m)], sorted(ballots.items()), k)


@settings(max_examples=120, deadline=None)
@given(elections())
def test_every_method_fills_exactly_k_seats(election):
    for method in ("scottish", "meek", "ear", "cc-om", "cc-pm"):
        winners, log = tabulate(election, method)
        assert len(winners.members) == election.k
        assert winners.members <= {c.id for c in election.profile.candidates}
        assert log.method == method


@settings(max_examples=80, deadline=None)
@given(elections())
def test_tabulation_is_deterministic(election):
    for method in ("scottish", "meek", "ear"):
        first = tabulate(election, method)
        second = tabulate(election, method)
        assert first.winners == second.winners
        assert [r.totals for r in first.log.rounds] == [
            r.totals for r in second.log.rounds
        ]


@settings(max_examples=80, deadline=None)
@given(elections())
def test_scottish_quota_and_conservation(election):
    _, log = tabulate(election, "scottish")
    v = election.profile.total_ballots
    assert log.quota == droop_quota(v, election.k)
    for rnd in log.rounds:
        assert sum(rnd.totals.values(), ZERO) + rnd.exhausted == v


@settings(max_examples=60, deadline=None)
@given(elections())
def test_bullet_only_profiles_agree_across_stv_variants(election):
    # with no rankings past the first choice every STV variant reduces to
    # repeated elimination, so the committees must coincide when untied
    bullets = {}
    for bt in election.profile.ballots:
        key = (bt.ranking[0],)
        bullets[key] = bullets.get(key, 0) + bt.multiplicity
    flat = make_election(
        [c.name for c in election.profile.candidates],
        sorted(bullets.items()),
        election.k,
    )
    scottish = tabulate(flat, "scottish")
    meek = tabulate(flat, "meek")
    if not scottish.winners.tie_flag and not meek.winners.tie_flag:
        assert scottish.winners.members == meek.winners.members


@st.composite
def tied_elections(draw):
    """Profiles symmetric in candidates 0 and 1, so the two tie throughout.

    Every ballot type is paired with its mirror image under swapping 0 and 1,
    so any election or elimination that separates them is a recorded tie.
    """
    base = draw(elections())
    swap = {0: 1, 1: 0}
    ballots = {}
    for bt in base.profile.ballots:
        for ranking in (bt.ranking, tuple(swap.get(c, c) for c in bt.ranking)):
            ballots[ranking] = ballots.get(ranking, 0) + bt.multiplicity
    names = [c.name for c in base.profile.candidates]
    return make_election(names, sorted(ballots.items()), base.k)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(elections(), tied_elections()),
    st.sampled_from([None, rational(1, 10**4), rational(1, 10**15)]),
)
def test_meek_round_logs_match_rational_reference(election, tolerance):
    assert_same_count(
        meek_at(election, tolerance),
        reference_meek_stv(election, tolerance=tolerance),
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(elections(), tied_elections()))
def test_ear_round_logs_match_rational_reference(election):
    assert_same_count(tabulate(election, "ear"), reference_ear(election))


@settings(max_examples=150, deadline=None)
@given(st.one_of(elections(), tied_elections()))
def test_scottish_round_logs_match_rational_reference(election):
    assert_same_count(tabulate(election, "scottish"), reference_scottish(election))
