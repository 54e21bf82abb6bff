import random
from pathlib import Path

import pytest

from blocaudit import load_election, make_election

FIXTURES = Path(__file__).parent / "fixtures"

EAST_AYRSHIRE = FIXTURES / "east_ayrshire_2012_ward5.blt"
NORTH_AYRSHIRE = FIXTURES / "north_ayrshire_2022_ward8.blt"


@pytest.fixture(scope="session")
def east_ayrshire():
    return load_election(EAST_AYRSHIRE)


@pytest.fixture(scope="session")
def north_ayrshire():
    return load_election(NORTH_AYRSHIRE)


def round1(x) -> float:
    """Exact half-up rounding of a rational to one decimal place.

    Published round tables show one decimal; rounding through float would
    risk misclassifying values that sit exactly on a .x5 boundary.
    """
    n, d = int(x.numerator), int(x.denominator)
    if n < 0:
        return -round1(-x)
    return ((n * 20 + d) // (2 * d)) / 10


def assert_rounds_match(log, expected, places_tolerance=0.001):
    """Compare a round log against {round_number: {candidate: 1dp total}}.

    Candidates absent from an expected row are not constrained (published
    tables blank out already-settled candidates in some rounds).
    """
    by_number = {rnd.number: rnd for rnd in log.rounds}
    assert set(expected) <= set(by_number), (
        f"missing rounds: {sorted(set(expected) - set(by_number))}"
    )
    for number, row in expected.items():
        totals = by_number[number].totals
        for cid, cell in row.items():
            got = round1(totals[cid])
            assert abs(got - cell) <= places_tolerance, (
                f"round {number} candidate {cid}: got {got}, expected {cell}"
            )


def random_profile(rng: random.Random, m_max=7, v_max=60, k_max=3):
    """A small random election for property tests.

    Ballot types are random non-empty prefixes of random permutations,
    with multiplicities; the number of distinct types stays small so
    exhaustive-removal loops remain cheap.
    """
    m = rng.randint(2, m_max)
    k = rng.randint(1, min(k_max, m - 1))
    n_types = rng.randint(1, 6)
    ballots = {}
    total = 0
    for _ in range(n_types):
        depth = rng.randint(1, m)
        ranking = tuple(rng.sample(range(m), depth))
        count = rng.randint(1, max(1, (v_max - total) // n_types + 1))
        if total + count > v_max:
            count = v_max - total
        if count <= 0:
            break
        ballots[ranking] = ballots.get(ranking, 0) + count
        total += count
    if not ballots:
        ballots[(0,)] = 1
    names = [f"c{i}" for i in range(m)]
    return make_election(names, sorted(ballots.items()), k)


def seeded_ward(seed, m=8, k=3, voters=200, stop=0.3):
    """A Plackett-Luce ward of truncated rankings drawn from one seed."""
    rng = random.Random(seed)
    strengths = [rng.uniform(0.3, 2.0) for _ in range(m)]
    counts = {}
    for _ in range(voters):
        remaining = list(range(m))
        ranking = []
        while remaining:
            pick = rng.choices(range(len(remaining)),
                               [strengths[c] for c in remaining])[0]
            ranking.append(remaining.pop(pick))
            if rng.random() < stop:
                break
        counts[tuple(ranking)] = counts.get(tuple(ranking), 0) + 1
    return make_election([f"c{i}" for i in range(m)], sorted(counts.items()), k)


def assert_same_count(got, want):
    """Two tabulations agree on the winners and on every exact log entry."""
    assert got.winners == want.winners
    assert got.log.method == want.log.method
    assert got.log.quota == want.log.quota
    assert got.log.tie_events == want.log.tie_events
    assert got.log.notes == want.log.notes
    assert len(got.log.rounds) == len(want.log.rounds)
    for mine, theirs in zip(got.log.rounds, want.log.rounds):
        where = f"round {theirs.number}"
        assert mine.number == theirs.number, where
        assert mine.totals == theirs.totals, where
        assert mine.quota == theirs.quota, where
        assert mine.exhausted == theirs.exhausted, where
        assert mine.keep_factors == theirs.keep_factors, where
        assert mine.events == theirs.events, where
        assert mine.threshold == theirs.threshold, where
