import random

import pytest

from blocaudit import (
    BallotSelection,
    BallotType,
    InputError,
    Candidate,
    Election,
    PreferenceProfile,
    ballots_ranking_only,
    fraction_of,
    make_election,
    remove_ballots,
    selection_ballots,
    selection_from_rankings,
)
from blocaudit.profiles import selection_ranked_union


def small_profile():
    return make_election(
        ["a", "b", "c"], [((0, 1), 4), ((1,), 3), ((2, 0), 5)], 2
    ).profile


def test_ballot_type_validation():
    with pytest.raises(ValueError):
        BallotType((), 1)
    with pytest.raises(ValueError):
        BallotType((0, 0), 1)
    with pytest.raises(ValueError):
        BallotType((0,), 0)
    bt = BallotType((2, 1), 7)
    assert bt.ranked_set == frozenset({1, 2})


def test_from_ballots_merges_duplicates():
    cands = [Candidate(0, "a"), Candidate(1, "b")]
    profile = PreferenceProfile.from_ballots(
        cands, [((0, 1), 2), ((0, 1), 3), ((1,), 1)]
    )
    counts = {bt.ranking: bt.multiplicity for bt in profile.ballots}
    assert counts == {(0, 1): 5, (1,): 1}
    assert profile.total_ballots == 6


def test_election_seat_bounds():
    profile = small_profile()
    with pytest.raises(ValueError):
        Election(profile, 0)
    with pytest.raises(ValueError):
        Election(profile, 3)
    assert Election(profile, 2).k == 2


def test_ballots_ranking_only():
    profile = small_profile()
    sel = ballots_ranking_only(profile, {1})
    assert selection_ballots(profile, sel) == [((1,), 3)]
    sel = ballots_ranking_only(profile, {0, 2})
    assert selection_ballots(profile, sel) == [((2, 0), 5)]
    assert ballots_ranking_only(profile, {0}).total == 0
    with pytest.raises(ValueError):
        ballots_ranking_only(profile, set())


def test_selection_ranked_union():
    profile = small_profile()
    sel = selection_from_rankings(profile, [((0, 1), 2), ((2, 0), 1)])
    assert selection_ranked_union(profile, sel) == frozenset({0, 1, 2})


def test_selection_validation():
    profile = small_profile()
    with pytest.raises(InputError):
        selection_from_rankings(profile, [((0, 2), 1)])  # no such type
    with pytest.raises(InputError):
        selection_from_rankings(profile, [((0, 1), 5)])  # over multiplicity


def test_fraction_of_largest_remainder():
    profile = small_profile()
    pool = BallotSelection(((0, 4), (2, 5)))  # 9 ballots across two types
    # 1/3 of 9 is 3: shares 4/3 -> 1.33, 5/3 -> 1.66; largest remainder
    # gives the extra ballot to the second type.
    third = fraction_of(pool, 1, 3)
    assert dict(third.entries) == {0: 1, 2: 2}
    assert fraction_of(pool, 3, 3) is pool or dict(
        fraction_of(pool, 3, 3).entries
    ) == dict(pool.entries)
    # tiny fractions floor to zero ballots
    assert fraction_of(BallotSelection(((0, 2),)), 1, 10).total == 0
    with pytest.raises(ValueError):
        fraction_of(pool, 0, 3)
    with pytest.raises(ValueError):
        fraction_of(pool, 4, 3)


def test_fraction_of_monotone_in_i():
    pool = BallotSelection(((0, 7), (1, 5), (2, 11)))
    last = 0
    for i in range(1, 11):
        total = fraction_of(pool, i, 10).total
        assert total == 23 * i // 10
        assert total >= last
        last = total


def test_remove_ballots():
    profile = small_profile()
    sel = selection_from_rankings(profile, [((0, 1), 4), ((1,), 1)])
    reduced = remove_ballots(profile, sel)
    counts = {bt.ranking: bt.multiplicity for bt in reduced.ballots}
    assert counts == {(1,): 2, (2, 0): 5}
    assert reduced.total_ballots == 7
    # candidate roster is untouched even when a candidate loses all mentions
    assert len(reduced.candidates) == 3


def test_remove_all_ballots_rejected():
    profile = small_profile()
    everything = BallotSelection(
        tuple((i, bt.multiplicity) for i, bt in enumerate(profile.ballots))
    )
    with pytest.raises(InputError):
        remove_ballots(profile, everything)


def test_remove_ballots_shares_untouched_types():
    profile = small_profile()
    assert profile.total_ballots == 12
    reduced = remove_ballots(profile, BallotSelection(((1, 1),)))
    assert reduced.ballots[0] is profile.ballots[0]
    assert reduced.ballots[2] is profile.ballots[2]
    assert reduced.ballots[1] == BallotType((1,), 2)
    assert reduced.total_ballots == 11
    # a type taken out whole is dropped; the rest are still shared
    again = remove_ballots(reduced, BallotSelection(((0, 4), (1, 1))))
    assert again.ballots == (BallotType((1,), 1), profile.ballots[2])
    assert again.ballots[1] is profile.ballots[2]
    assert again.total_ballots == 6


def test_remove_ballots_error_messages():
    profile = small_profile()
    cases = [
        (((5, 1),), "selection references ballot type 5, profile has 3"),
        (((0, 5),), "selection takes 5 ballots of type 0, only 4 exist"),
        (((0, 4), (1, 3), (2, 5)), "removing this selection would empty the profile"),
    ]
    for entries, message in cases:
        with pytest.raises(InputError) as excinfo:
            remove_ballots(profile, BallotSelection(entries))
        assert str(excinfo.value) == message


def test_profile_equality_ignores_cached_total():
    read, unread = small_profile(), small_profile()
    assert read.total_ballots == 12
    assert read == unread
    assert hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    direct = make_election(["a", "b", "c"], [((0, 1), 4), ((2, 0), 5)], 2).profile
    reduced = remove_ballots(read, BallotSelection(((1, 3),)))
    assert reduced.total_ballots == 9
    assert reduced == direct
    assert hash(reduced) == hash(direct)


def test_make_election_parties_and_title():
    election = make_election(
        ["x", "y", "z"],
        [((0,), 1), ((1,), 1), ((2,), 1)],
        1,
        parties=["P1", "P2", "IND"],
        title="Ward",
    )
    assert [c.party for c in election.profile.candidates] == ["P1", "P2", "IND"]
    assert election.title == "Ward"


def prefix_nodes(node, prefix=()):
    """Every (prefix, node) of a prefix tree, the root first."""
    yield prefix, node
    for c, _, _, child in node[1]:
        yield from prefix_nodes(child, prefix + (c,))


def test_prefix_tree_matches_brute_force():
    # each node's range holds exactly the types whose rankings start with
    # its prefix, its stop is the type ranking the prefix alone, and its
    # children split the rest by the next candidate, in id order
    rng = random.Random(8086)
    for _ in range(300):
        m = rng.randint(1, 6)
        ballots = {}
        for _ in range(rng.randint(1, 25)):
            ranking = tuple(rng.sample(range(m), rng.randint(1, m)))
            ballots[ranking] = rng.randint(1, 5)
        profile = make_election(
            [f"c{i}" for i in range(m + 1)], ballots.items(), 1
        ).profile
        rankings = [bt.ranking for bt in profile.ballots]
        longest, root = profile.prefix_tree
        assert longest == max(map(len, rankings))
        nodes = 0
        ranges = {(): (0, len(rankings))}
        for prefix, (stop, children) in prefix_nodes(root):
            nodes += 1
            d = len(prefix)
            lo, hi = ranges[prefix]
            holding = [t for t, r in enumerate(rankings) if r[:d] == prefix]
            assert holding == list(range(lo, hi))
            assert stop == next((t for t in holding if rankings[t] == prefix), None)
            following = sorted({rankings[t][d] for t in holding if len(rankings[t]) > d})
            assert [c for c, _, _, _ in children] == following
            for c, clo, chi, _ in children:
                ranges[prefix + (c,)] = (clo, chi)
        assert nodes == 1 + len({r[:d] for r in rankings for d in range(1, len(r) + 1)})
