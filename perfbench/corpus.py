"""Seeded election inputs for the benchmark workloads.

The synthetic wards are Plackett-Luce truncated rankings with a party
structure: each voter leans to one party, whose candidates get a weight
boost, draws a full ranking by sequential sampling without replacement, and
keeps a prefix whose length follows the ward's truncation profile. Each
ward slot fixes its shape (m, k, V, truncation) and its party and candidate
strengths; only the voters' draws depend on the seed, so the inputs differ
from seed to seed while the work per pass stays comparable.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

from blocaudit.formats import load_election, serialize_blt
from blocaudit.profiles import Election, make_election
from blocaudit.worstcase import FAMILIES, GeneratorSpec, generate

PARTIES = ("RED", "BLUE", "GREEN", "GOLD")


def plackett_luce_ward(strengths: random.Random, rng: random.Random, m: int,
                       k: int, voters: int, stop: float, title: str) -> Election:
    """One synthetic ward; `strengths` draws the candidates, `rng` the voters.

    `stop` is the chance a voter ends the ranking after each preference, so
    0.6 is bullet-heavy and 0.05 near-complete; depth sets how many ballots
    rank only losers or only winners, and so the removal pool sizes.
    """
    parties = [PARTIES[i % len(PARTIES)] for i in range(m)]
    party_strength = {p: strengths.uniform(0.5, 2.0) for p in PARTIES}
    base = [party_strength[parties[c]] * strengths.uniform(0.3, 1.7)
            for c in range(m)]
    loyalty = 4.0
    lean_parties = sorted(set(parties))
    lean_weights = [party_strength[p] for p in lean_parties]
    counts: Counter = Counter()
    for _ in range(voters):
        lean = rng.choices(lean_parties, lean_weights)[0]
        weights = [w * loyalty if parties[c] == lean else w
                   for c, w in enumerate(base)]
        remaining = list(range(m))
        ranking = []
        while remaining:
            pick = rng.choices(range(len(remaining)),
                               [weights[c] for c in remaining])[0]
            ranking.append(remaining.pop(pick))
            if rng.random() < stop:
                break
        counts[tuple(ranking)] += 1
    names = [f"{parties[c].title()} {c + 1}" for c in range(m)]
    return make_election(names, counts.items(), k, parties, title)


# Ward shapes (m, k, voters, stop) for the synth workload. Small and large m
# and both truncation extremes are mixed so that the per-ballot rescans, the
# loser-only pools (deep rankings) and the winner-only pools (bullet-heavy
# ballots) all carry weight; sizes are held down so one pass over all wards
# stays a few seconds at exact-rational speed.
SYNTH_SHAPES = (
    (7, 2, 300, 0.50), (7, 3, 250, 0.10),
    (8, 3, 250, 0.60), (8, 3, 200, 0.20),
    (9, 2, 200, 0.35), (10, 3, 150, 0.50),
)

# A few small synthetic wards that ride along with the worst-case families in
# the batch directory.
BATCH_SHAPES = ((5, 2, 50, 0.5), (6, 2, 50, 0.6), (6, 3, 40, 0.5))

# The QPSC families are defined for k = 2 only; the others for k = 2..5.
WORSTCASE_KS = {"QPSC_LEFT": (2,), "QPSC_RIGHT": (2,)}


def synthetic_wards(seed: int, shapes, prefix: str) -> list[tuple[str, Election]]:
    out = []
    for i, (m, k, voters, stop) in enumerate(shapes):
        strengths = random.Random(f"{prefix}/{i}")
        rng = random.Random(f"{prefix}/{seed}/{i}")
        name = f"{prefix}-s{seed}-{i:02d}"
        out.append((name, plackett_luce_ward(
            strengths, rng, m, k, voters, stop, name)))
    return out


def worstcase_cases() -> list[tuple[str, object]]:
    """Every family at every k in 2..5 where the family is defined."""
    return [
        (f"{family.lower()}_k{k}", generate(GeneratorSpec(family, k)))
        for family in FAMILIES
        for k in WORSTCASE_KS.get(family, (2, 3, 4, 5))
    ]


def write_blt(directory: Path, name: str, election: Election) -> Path:
    """Write canonical BLT and check that it reads back as the same election."""
    path = directory / f"{name}.blt"
    path.write_text(serialize_blt(election))
    back = load_election(path)
    if (back.profile, back.k, back.title) != (
        election.profile, election.k, election.title
    ):
        raise ValueError(f"{path} does not round-trip through load_election")
    return path


def shape(election: Election) -> dict:
    profile = election.profile
    return {"m": profile.m, "k": election.k, "V": profile.total_ballots,
            "types": len(profile.ballots)}
