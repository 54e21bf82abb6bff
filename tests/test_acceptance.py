"""Desk-scale acceptance suite.

Each test covers one numbered acceptance criterion and produces exactly one
pass/fail line under pytest. Randomized criteria use fixed seeds; timing
budgets are asserted inside the tests that carry them.
"""

import itertools
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

import golden
from blocaudit import (
    Election,
    ScoringVector,
    audit_hare_psc,
    borda_vector,
    check_ilvb,
    check_iwvb,
    check_iwvb_star,
    load_election,
    make_election,
    oracle_ilvb,
    plurality_vector,
    qpsc_method,
    remove_ballots,
    search_ilvb,
    selection_from_rankings,
    tabulate,
)
from blocaudit.worstcase import FAMILIES, GeneratorSpec, generate
from conftest import EAST_AYRSHIRE, NORTH_AYRSHIRE, assert_rounds_match


def sample_profile(rng, cap=3000, m_max=7, v_max=60, k_max=3):
    """Random small election; multiplicities shrink until the exhaustive
    removal space (product of mult+1 over all types) fits the cap."""
    m = rng.randint(3, m_max)
    k = rng.randint(1, min(k_max, m - 1))
    n_types = rng.randint(2, 8)
    ballots = {}
    total = 0
    for _ in range(n_types):
        depth = rng.randint(1, rng.randint(1, m))  # biased toward truncation
        ranking = tuple(rng.sample(range(m), depth))
        count = rng.randint(1, 12)
        if total + count > v_max:
            count = v_max - total
        if count <= 0:
            break
        ballots[ranking] = ballots.get(ranking, 0) + count
        total += count
    if not ballots:
        ballots[(rng.randrange(m),)] = 1
    while True:
        prod = 1
        for c in ballots.values():
            prod *= c + 1
        if prod <= cap:
            break
        big = max(ballots, key=lambda r: ballots[r])
        ballots[big] -= 1
        if ballots[big] == 0:
            del ballots[big]
    return make_election([f"c{i}" for i in range(m)], sorted(ballots.items()), k)


def removal_matrix(profile, type_indices):
    """All removal count-vectors over the given ballot types, excluding the
    empty removal and any removal that would empty the profile."""
    v = profile.total_ballots
    ranges = [range(profile.ballots[t].multiplicity + 1) for t in type_indices]
    R = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    if R.size == 0:
        return R.reshape(0, len(type_indices))
    keep = (R.sum(axis=1) > 0) & (R.sum(axis=1) < v)
    return R[keep]


# --------------------------------------------------------------- criterion 1


def test_acceptance_1_east_ayrshire_round_table():
    """Published stage totals and the loser-ballot seat flip, under 1s."""
    start = time.perf_counter()
    election = load_election(EAST_AYRSHIRE)
    winners, log = tabulate(election, "scottish")
    assert log.quota == 833
    assert winners.members == golden.EA_WINNERS
    assert_rounds_match(log, golden.EA_ROUNDS, places_tolerance=0.1)

    selection = selection_from_rankings(election.profile, [golden.EA_MOD_REMOVED])
    reduced = Election(remove_ballots(election.profile, selection), election.k)
    mod_winners, mod_log = tabulate(reduced, "scottish")
    assert mod_log.quota == 828
    assert mod_winners.members == golden.EA_MOD_WINNERS
    assert_rounds_match(mod_log, golden.EA_MOD_ROUNDS, places_tolerance=0.1)
    # the candidate who gains the seat finishes on 835.4 in the final stage
    final = mod_log.rounds[-1].totals
    from conftest import round1

    assert abs(round1(final[3]) - 835.4) <= 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 PASS: ward tables reproduced, {elapsed*1000:.0f}ms")


# --------------------------------------------------------------- criterion 2


def test_acceptance_2_north_ayrshire_winner_ballot_flip():
    """Winner-ballot removal flips a seat; recorded under both winner-ballot
    criteria; under 1s."""
    start = time.perf_counter()
    election = load_election(NORTH_AYRSHIRE)
    winners, log = tabulate(election, "scottish")
    assert log.quota == 1007
    assert winners.members == golden.NA_WINNERS
    assert_rounds_match(log, golden.NA_ROUNDS, places_tolerance=0.1)

    selection = selection_from_rankings(election.profile, [golden.NA_MOD_REMOVED])
    reduced = Election(remove_ballots(election.profile, selection), election.k)
    mod_winners, mod_log = tabulate(reduced, "scottish")
    assert mod_log.quota == 957
    assert mod_winners.members == golden.NA_MOD_WINNERS

    plain = check_iwvb(election, "scottish", selection)
    strict = check_iwvb_star(election, "scottish", selection)
    assert plain is not None and plain.criterion == "IWVB"
    assert strict is not None and strict.criterion == "IWVB_STAR"
    # Stephen (6), whom the removed McDonald (5) bullets leave unranked,
    # is the one winner who loses the seat
    before, after = plain.original_winners.members, plain.modified_winners.members
    assert (before - {5}) - after == {6}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 PASS: both winner-ballot records produced, "
          f"{elapsed*1000:.0f}ms")


# --------------------------------------------------------------- criterion 3


def test_acceptance_3_worstcase_constructions():
    """Every generator family reproduces its designed flip, without ties,
    across its full seat range, under all its named methods, in under 10s."""
    start = time.perf_counter()
    cases = 0
    for family in FAMILIES:
        if family in ("QPSC_LEFT", "QPSC_RIGHT"):
            k_range = (2,)
        elif family in ("STV_ILVB", "EAR_ILVB"):
            k_range = (1, 2, 3, 4, 5)
        else:
            k_range = (2, 3, 4, 5)
        for k in k_range:
            case = generate(GeneratorSpec(family, k))
            for method in case.methods:
                if method == "qpsc":
                    rule = qpsc_method(case.options["sv"], case.options["q_mode"])
                else:
                    rule = lambda e, m=method: tabulate(e, m)
                before = rule(case.election)
                reduced = Election(
                    remove_ballots(case.election.profile, case.removal),
                    case.election.k,
                )
                after = rule(reduced)
                assert before.winners.members == case.winners_before, (family, k, method)
                assert after.winners.members == case.winners_after, (family, k, method)
                assert not before.winners.tie_flag, (family, k, method)
                assert not after.winners.tie_flag, (family, k, method)
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3 PASS: {cases} construction runs, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 4


def cc_contribution_matrix(profile, k, model):
    """Per-committee, per-ballot-type score contributions (before counts)."""
    m = profile.m
    committees = list(itertools.combinations(range(m), k))
    D = np.zeros((len(committees), len(profile.ballots)), dtype=np.int64)
    for t, bt in enumerate(profile.ballots):
        pos = {c: i for i, c in enumerate(bt.ranking)}
        for j, committee in enumerate(committees):
            ranked = [pos[c] for c in committee if c in pos]
            if ranked:
                D[j, t] = m - 1 - min(ranked)
            elif model == "om":
                D[j, t] = m - len(bt.ranking) - 1
    return committees, D


def test_acceptance_4_cc_removal_immunity():
    """Exhaustive removals on 10,000 random profiles: loser ballots never
    move either coverage-committee variant, and winner ballots never strip
    an unranked winner. Under 5 minutes."""
    start = time.perf_counter()
    rng = random.Random(20260819)
    profiles = loser_rows = winner_rows = 0
    for _ in range(10_000):
        election = sample_profile(rng)
        profile, k = election.profile, election.k
        counts = np.array(
            [bt.multiplicity for bt in profile.ballots], dtype=np.int64
        )
        for model in ("om", "pm"):
            committees, D = cc_contribution_matrix(profile, k, model)
            base_scores = D @ counts
            base_idx = int(np.argmax(base_scores))
            winners = frozenset(committees[base_idx])
            result = tabulate(election, f"cc-{model}")
            assert result.winners.members == winners

            loser_types = [
                t for t, bt in enumerate(profile.ballots)
                if not (bt.ranked_set & winners)
            ]
            R = removal_matrix(profile, loser_types)
            if len(R):
                scores = base_scores[None, :] - R @ D[:, loser_types].T
                assert np.all(np.argmax(scores, axis=1) == base_idx), (
                    "loser-ballot removal moved a coverage committee"
                )
                loser_rows += len(R)

            winner_types = [
                t for t, bt in enumerate(profile.ballots)
                if bt.ranked_set and bt.ranked_set < winners
            ]
            R = removal_matrix(profile, winner_types)
            if len(R):
                scores = base_scores[None, :] - R @ D[:, winner_types].T
                indices = np.argmax(scores, axis=1)
                for row in np.nonzero(indices != base_idx)[0]:
                    ranked = frozenset().union(
                        *(
                            profile.ballots[winner_types[j]].ranked_set
                            for j in range(len(winner_types))
                            if R[row, j] > 0
                        )
                    )
                    new_committee = frozenset(committees[int(indices[row])])
                    assert not ranked <= new_committee, (
                        "winner-ballot removal displaced an unranked winner"
                    )
                winner_rows += len(R)
        profiles += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 PASS: {profiles} profiles, {loser_rows} loser-ballot "
          f"and {winner_rows} winner-ballot removals, 0 counterexamples, "
          f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5


def positional_contribution_matrix(profile, weights):
    m = profile.m
    P = np.zeros((m, len(profile.ballots)), dtype=np.int64)
    for t, bt in enumerate(profile.ballots):
        for pos, c in enumerate(bt.ranking):
            if pos < len(weights):
                P[c, t] = weights[pos]
    return P


def test_acceptance_5_positional_removal_immunity():
    """k-Borda and k-plurality: exhaustive loser-ballot and winner-ballot
    removals on 10,000 random profiles never flip an untied committee."""
    start = time.perf_counter()
    rng = random.Random(5150)
    profiles = rows = 0
    for _ in range(10_000):
        election = sample_profile(rng)
        profile, k, m = election.profile, election.k, election.profile.m
        counts = np.array(
            [bt.multiplicity for bt in profile.ballots], dtype=np.int64
        )
        vectors = (
            (borda_vector(m), list(range(m - 1, -1, -1))),
            (plurality_vector(m), [1] + [0] * (m - 1)),
        )
        for sv, weights in vectors:
            P = positional_contribution_matrix(profile, weights)
            base = P @ counts
            order = sorted(range(m), key=lambda c: (-base[c], c))
            winners = frozenset(order[:k])
            base_tie = base[order[k - 1]] == base[order[k]]
            got = tabulate(election, "positional", sv=sv).winners
            assert got.members == winners and got.tie_flag == base_tie
            if base_tie:
                continue
            winner_ids = np.array(sorted(winners))
            loser_ids = np.array(sorted(set(range(m)) - winners))

            loser_types = [
                t for t, bt in enumerate(profile.ballots)
                if not (bt.ranked_set & winners)
            ]
            R = removal_matrix(profile, loser_types)
            if len(R):
                S = base[None, :] - R @ P[:, loser_types].T
                min_w = S[:, winner_ids].min(axis=1)
                max_l = S[:, loser_ids].max(axis=1)
                untied = min_w != max_l
                assert np.all(min_w[untied] > max_l[untied]), (
                    "loser-ballot removal flipped a positional committee"
                )
                rows += len(R)

            winner_types = [
                t for t, bt in enumerate(profile.ballots)
                if bt.ranked_set and bt.ranked_set < winners
            ]
            R = removal_matrix(profile, winner_types)
            if len(R):
                S = base[None, :] - R @ P[:, winner_types].T
                boundary = np.partition(S, m - k, axis=1)
                tied = boundary[:, m - k] == boundary[:, m - k - 1]
                ids = np.arange(m)
                for row in np.nonzero(~tied)[0]:
                    ranked = frozenset().union(
                        *(
                            profile.ballots[winner_types[j]].ranked_set
                            for j in range(len(winner_types))
                            if R[row, j] > 0
                        )
                    )
                    s = S[row]
                    for w in winners - ranked:
                        beats = int(
                            np.sum((s > s[w]) | ((s == s[w]) & (ids < w)))
                        )
                        assert beats < k, (
                            "winner-ballot removal displaced an unranked "
                            "positional winner"
                        )
                rows += len(R)
        profiles += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 PASS: {profiles} profiles, {rows} removals, "
          f"0 violations on untied committees, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 6


def test_acceptance_6_heuristic_contained_in_oracle():
    """On 200 random elections, every heuristic loser-ballot finding is
    reproduced by the exhaustive oracle under all three sequential rules;
    the completeness ratio is reported without a pass threshold."""
    start = time.perf_counter()
    rng = random.Random(606060)
    found = total = runs = 0
    elections_used = 0
    while elections_used < 200:
        election = sample_profile(rng, cap=128, m_max=6, v_max=40, k_max=2)
        elections_used += 1
        for method in ("scottish", "meek", "ear"):
            oracle = oracle_ilvb(election, method, max_budget=200_000)
            heuristic = search_ilvb(election, method)
            missing = [record for record in heuristic if record not in oracle]
            assert not missing, (method, missing)
            found += len(heuristic)
            total += len(oracle)
            runs += 1
    elapsed = time.perf_counter() - start
    ratio = found / total if total else float("nan")
    print(f"ACCEPTANCE 6 PASS: {runs} rule runs on {elections_used} elections, "
          f"heuristic contained in oracle; completeness {found}/{total} "
          f"= {ratio:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 7


def test_acceptance_7_constrained_scoring_flips():
    """Both designed proportional-scoring elections flip on a single
    loser bullet, recorded through the standard loser-ballot check."""
    left = generate(GeneratorSpec("QPSC_LEFT", 2))
    rule = qpsc_method(left.options["sv"], left.options["q_mode"])
    assert rule(left.election).winners.members == {2, 3}  # C, D
    record = check_ilvb(left.election, rule, left.removal)
    assert record is not None
    assert record.removed.total == 1
    assert record.modified_winners.members == {0, 2}  # A, C

    right = generate(GeneratorSpec("QPSC_RIGHT", 2))
    rule = qpsc_method(right.options["sv"], right.options["q_mode"])
    assert rule(right.election).winners.members == {1, 2}  # B, C
    record = check_ilvb(right.election, rule, right.removal)
    assert record is not None
    assert record.removed.total == 1
    assert record.modified_winners.members == {2, 3}  # C, D
    print("ACCEPTANCE 7 PASS: both constrained-scoring fixtures flip on one "
          "removed bullet and register as loser-ballot violations")


# --------------------------------------------------------------- criterion 8


def test_acceptance_8_hare_quota_audit_clean():
    """No sequential rule ever leaves a Hare-entitled solid coalition
    unrepresented: both wards (before and after their removals) plus 1,000
    random profiles, tie-flagged outcomes excluded."""
    start = time.perf_counter()
    fixtures = []
    for path, removed in (
        (EAST_AYRSHIRE, golden.EA_MOD_REMOVED),
        (NORTH_AYRSHIRE, golden.NA_MOD_REMOVED),
    ):
        election = load_election(path)
        fixtures.append(election)
        selection = selection_from_rankings(election.profile, [removed])
        fixtures.append(
            Election(remove_ballots(election.profile, selection), election.k)
        )
    rng = random.Random(888)
    randoms = [sample_profile(rng) for _ in range(1_000)]
    checked = skipped = 0
    for election in fixtures + randoms:
        for method in ("scottish", "meek", "ear"):
            winners, _ = tabulate(election, method)
            if winners.tie_flag:
                skipped += 1
                continue
            violated = audit_hare_psc(election, winners)
            assert violated == [], (method, violated)
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 8 PASS: {checked} audits clean "
          f"({skipped} tie-flagged excluded), {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 9


EXPECTED_GRID = {
    "ILVB": {"scottish": 40, "meek": 19, "ear": 54, "cc-om": 0, "cc-pm": 0},
    "IWVB": {"scottish": 109, "meek": 104, "ear": 199, "cc-om": 23, "cc-pm": 28},
    "IWVB_STAR": {"scottish": 104, "meek": 103, "ear": 181, "cc-om": 0,
                  "cc-pm": 0},
}


def test_acceptance_9_full_corpus_grid():
    """Stretch goal: audit a full ward corpus and match the published
    violation grid within 15% per cell. Runs only when RCV_AUDIT_CORPUS
    points at a directory of canonical ward files."""
    corpus = os.environ.get("RCV_AUDIT_CORPUS")
    if not corpus:
        print("ACCEPTANCE 9 SKIP: RCV_AUDIT_CORPUS not set; the corpus grid "
              "is a stretch goal outside the desk-scale gate")
        pytest.skip("RCV_AUDIT_CORPUS not set")
    corpus_dir = Path(corpus)
    assert corpus_dir.is_dir(), corpus
    from blocaudit.cli import AUDIT_METHODS, _audit_one
    from blocaudit.criteria import CRITERIA, SearchParams

    params = SearchParams(sigma_l=10, sigma_w=3)
    violators = {
        (criterion, method): set()
        for criterion in CRITERIA
        for method in AUDIT_METHODS
    }
    files = sorted(corpus_dir.glob("*.blt"))
    assert files, f"no ward files in {corpus_dir}"
    for path in files:
        election = load_election(path)
        records = []
        for method in AUDIT_METHODS:
            records += _audit_one(election, method, list(CRITERIA), params, False)[0]
        for record in records:
            violators[(record.criterion, record.method)].add(path.stem)
    failures = []
    for criterion, row in EXPECTED_GRID.items():
        for method, expected in row.items():
            got = len(violators[(criterion, method)])
            if abs(got - expected) > 0.15 * expected:
                failures.append((criterion, method, got, expected))
    assert not failures, failures
    ilvb_ids = violators[("ILVB", "scottish")]
    iwvb_ids = violators[("IWVB", "scottish")]
    assert any("east_ayrshire_2012" in i for i in ilvb_ids)
    assert any("north_ayrshire_2022" in i for i in iwvb_ids)
    print(f"ACCEPTANCE 9 PASS: grid within 15% on {len(files)} wards")
