"""Ballot data model and the ballot-removal algebra.

Candidate ids are dense indices 0..m-1. Rankings are tuples of ids ordered
from most to least preferred; a length-1 ranking is a bullet vote. Every
type is a frozen value: its fields never change, and ==, hash and repr read
only them. A profile's cached views and search memos live outside the value,
in the instance's __dict__, and are built on first use.

A profile stores its ballot types in canonical order (sorted by ranking) with
duplicate rankings merged. BallotSelection indices always refer to that
canonical order of a specific source profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError

INDEPENDENT_PARTY = "IND"


@dataclass(frozen=True)
class Candidate:
    id: int
    name: str
    party: str = INDEPENDENT_PARTY

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"candidate id must be non-negative, got {self.id}")
        if not self.name:
            raise ValueError("candidate name must be non-empty")
        if not self.party:
            raise ValueError(f"candidate {self.name!r} has an empty party tag")


@dataclass(frozen=True)
class BallotType:
    ranking: tuple[int, ...]
    multiplicity: int

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if not self.ranking:
            raise ValueError("a ballot must rank at least one candidate")
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError(f"ranking {self.ranking} repeats a candidate")
        if self.multiplicity < 1:
            raise ValueError(
                f"multiplicity must be positive, got {self.multiplicity}"
            )

    @property
    def ranked_set(self) -> frozenset[int]:
        return frozenset(self.ranking)


@dataclass(frozen=True)
class PreferenceProfile:
    candidates: tuple[Candidate, ...]
    ballots: tuple[BallotType, ...]

    def __post_init__(self):
        candidates = tuple(self.candidates)
        ballots = tuple(sorted(self.ballots, key=lambda bt: bt.ranking))
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "ballots", ballots)
        if not candidates:
            raise ValueError("a profile needs at least one candidate")
        for expected, cand in enumerate(candidates):
            if cand.id != expected:
                raise ValueError(
                    f"candidate ids must be dense 0..m-1; position {expected} "
                    f"holds id {cand.id}"
                )
        if not ballots:
            raise ValueError("a profile needs at least one ballot")
        m = len(candidates)
        for prev, bt in zip(ballots, ballots[1:]):
            if prev.ranking == bt.ranking:
                raise ValueError(f"duplicate ballot type {bt.ranking}")
        for bt in ballots:
            for cid in bt.ranking:
                if not 0 <= cid < m:
                    raise ValueError(
                        f"ranking {bt.ranking} references unknown candidate {cid}"
                    )

    @property
    def m(self) -> int:
        return len(self.candidates)

    # The cached views and memos below live in the instance's __dict__,
    # outside the dataclass fields, so they take no part in ==, hash or repr.

    @cached_property
    def total_ballots(self) -> int:
        return sum(self.multiplicities)

    @cached_property
    def multiplicities(self) -> tuple[int, ...]:
        """Each ballot type's multiplicity, in canonical order."""
        return tuple(bt.multiplicity for bt in self.ballots)

    @cached_property
    def ranked_at(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each rank depth d, the (type index, candidate) pairs ranked there.

        Only the types that rank more than d candidates appear at depth d,
        in canonical order.
        """
        depth = max(len(bt.ranking) for bt in self.ballots)
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
        for t, bt in enumerate(self.ballots):
            for d, cid in enumerate(bt.ranking):
                pairs[d].append((t, cid))
        return tuple(map(tuple, pairs))

    @cached_property
    def ranks_of(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each candidate, the (type index, position) pairs ranking them.

        Positions count from 0, and the pairs are in canonical order.
        """
        pairs: list[list[tuple[int, int]]] = [[] for _ in self.candidates]
        for t, bt in enumerate(self.ballots):
            for pos, cid in enumerate(bt.ranking):
                pairs[cid].append((t, pos))
        return tuple(map(tuple, pairs))

    @cached_property
    def prefix_tree(self) -> tuple[int, tuple]:
        """(longest ranking, root): the rankings as a tree of shared prefixes.

        A node stands for the types whose rankings start with one prefix.
        They form a contiguous index range, since the types are in canonical
        order. A node is (stop, children): stop is the index of the type
        whose ranking is the prefix itself, or None, and children holds
        (c, lo, hi, child) for each candidate c that comes next after the
        prefix, in id order, where types lo..hi-1 go on with c and child is
        their node. The root stands for the empty prefix, and there is one
        node per distinct prefix, so at most one per ranked position.
        """
        rankings = [bt.ranking for bt in self.ballots]

        def node(lo: int, hi: int, d: int) -> tuple:
            stop = None
            if len(rankings[lo]) == d:
                stop = lo
                lo += 1
            children = []
            while lo < hi:
                c = rankings[lo][d]
                end = lo + 1
                while end < hi and rankings[end][d] == c:
                    end += 1
                children.append((c, lo, end, node(lo, end, d + 1)))
                lo = end
            return stop, tuple(children)

        return max(map(len, rankings)), node(0, len(rankings), 0)

    # The two memos of the removal searches (criteria.ProbeSession fills
    # them): the graded removal fractions, each with its ranked union, and
    # the transfer orders. They are kept here so that the searches of every
    # rule over this profile share them.

    @cached_property
    def removal_fractions(self) -> dict:
        """(allowed candidate set, sigma) -> the graded parts of its pool
        probed, each with every candidate its ballots rank."""
        return {}

    @cached_property
    def transfer_orders(self) -> dict:
        """(winners, A, B) -> the transfer order of the winners other than A."""
        return {}

    @classmethod
    def from_ballots(
        cls,
        candidates: Iterable[Candidate],
        rankings_with_counts: Iterable[tuple[Sequence[int], int]],
    ) -> "PreferenceProfile":
        """Build a profile, merging duplicate rankings by summing counts."""
        merged: dict[tuple[int, ...], int] = {}
        for ranking, count in rankings_with_counts:
            key = tuple(ranking)
            merged[key] = merged.get(key, 0) + count
        ballots = tuple(BallotType(r, c) for r, c in merged.items())
        return cls(tuple(candidates), ballots)


@dataclass(frozen=True)
class Election:
    profile: PreferenceProfile
    k: int
    title: str = ""

    def __post_init__(self):
        if not 1 <= self.k < self.profile.m:
            raise ValueError(
                f"seats must satisfy 1 <= k < m, got k={self.k}, m={self.profile.m}"
            )


@dataclass(frozen=True)
class BallotSelection:
    """A multiset of ballots drawn from a profile: (type index, count) pairs.

    Entries are kept sorted by index with zero counts dropped, so equal
    selections compare equal regardless of construction order.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        cleaned = []
        seen = set()
        for index, count in self.entries:
            if count < 0:
                raise ValueError(f"negative count {count} for ballot type {index}")
            if index < 0:
                raise ValueError(f"negative ballot type index {index}")
            if index in seen:
                raise ValueError(f"ballot type {index} appears twice in selection")
            seen.add(index)
            if count > 0:
                cleaned.append((index, count))
        object.__setattr__(self, "entries", tuple(sorted(cleaned)))

    @property
    def total(self) -> int:
        return sum(count for _, count in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


def _validate_selection(profile: PreferenceProfile, selection: BallotSelection):
    n = len(profile.ballots)
    for index, count in selection.entries:
        if index >= n:
            raise InputError(
                f"selection references ballot type {index}, profile has {n}"
            )
        if count > profile.ballots[index].multiplicity:
            raise InputError(
                f"selection takes {count} ballots of type {index}, "
                f"only {profile.ballots[index].multiplicity} exist"
            )


def _validate_removal(profile: PreferenceProfile, selection: BallotSelection):
    """Raise InputError unless removing the selection leaves a ballot behind."""
    _validate_selection(profile, selection)
    if selection.total == profile.total_ballots:
        raise InputError("removing this selection would empty the profile")


def ballots_ranking_only(
    profile: PreferenceProfile, allowed: Iterable[int]
) -> BallotSelection:
    """All ballot types, at full multiplicity, ranking only candidates in `allowed`."""
    allowed_set = frozenset(allowed)
    if not allowed_set:
        raise ValueError("allowed candidate set must be non-empty")
    entries = [
        (i, bt.multiplicity)
        for i, bt in enumerate(profile.ballots)
        if allowed_set.issuperset(bt.ranking)
    ]
    return BallotSelection(tuple(entries))


def fraction_of(selection: BallotSelection, i: int, sigma: int) -> BallotSelection:
    """The i/sigma sub-selection, floor(total*i/sigma) ballots in all.

    Ballots are apportioned across types proportionally to their counts by
    largest remainder; remainder ties go to the lower ballot-type index.
    """
    if sigma < 1 or not 1 <= i <= sigma:
        raise ValueError(f"need 1 <= i <= sigma, got i={i}, sigma={sigma}")
    total = selection.total
    target = total * i // sigma
    if target == 0:
        return BallotSelection(())
    if target == total:
        return selection
    shares = [
        (index, count * target // total, count * target % total)
        for index, count in selection.entries
    ]
    leftover = target - sum(base for _, base, _ in shares)
    by_remainder = sorted(
        range(len(shares)), key=lambda j: (-shares[j][2], shares[j][0])
    )
    bumped = set(by_remainder[:leftover])
    entries = tuple(
        (index, base + (1 if j in bumped else 0))
        for j, (index, base, _) in enumerate(shares)
    )
    return BallotSelection(entries)


def remove_ballots(
    profile: PreferenceProfile, selection: BallotSelection
) -> PreferenceProfile:
    """The profile with the selected ballots taken out.

    Ballot types that reach zero are dropped; the candidate roster is kept
    unchanged even if a candidate ends with no remaining support. Untouched
    ballot types are the source profile's own (immutable) objects, shared
    rather than copied; only the reduced types are built anew.
    """
    _validate_removal(profile, selection)
    remaining: list[BallotType | None] = list(profile.ballots)
    for i, count in selection.entries:
        bt = profile.ballots[i]
        left = bt.multiplicity - count
        remaining[i] = BallotType(bt.ranking, left) if left else None
    return PreferenceProfile(
        profile.candidates, tuple(bt for bt in remaining if bt is not None)
    )


def selection_ranked_union(
    profile: PreferenceProfile, selection: BallotSelection
) -> frozenset[int]:
    """Every candidate ranked by at least one selected ballot."""
    _validate_selection(profile, selection)
    out: set[int] = set()
    for index, _ in selection.entries:
        out.update(profile.ballots[index].ranking)
    return frozenset(out)


def selection_ballots(
    profile: PreferenceProfile, selection: BallotSelection
) -> list[tuple[tuple[int, ...], int]]:
    """The selection as explicit (ranking, count) pairs."""
    _validate_selection(profile, selection)
    return [
        (profile.ballots[index].ranking, count)
        for index, count in selection.entries
    ]


def selection_from_rankings(
    profile: PreferenceProfile, items: Iterable[tuple[Sequence[int], int]]
) -> BallotSelection:
    """Build a selection from (ranking, count) pairs against this profile; a
    ranking member or a count that is not an int (a bool is not one), a
    ranking it lacks or listed twice, or a negative count, raises InputError."""
    by_ranking = {bt.ranking: i for i, bt in enumerate(profile.ballots)}
    entries = {}
    for ranking, count in items:
        key = tuple(ranking)
        if not all(type(x) is int for x in (*key, count)):
            raise InputError(f"ranking {key} and count {count!r} must be integers")
        if key not in by_ranking:
            raise InputError(f"profile has no ballot type with ranking {key}")
        if count < 0:
            raise InputError(f"negative count {count} for ranking {key}")
        if by_ranking[key] in entries:
            raise InputError(f"ranking {key} is listed twice")
        entries[by_ranking[key]] = count
    selection = BallotSelection(tuple(entries.items()))
    _validate_selection(profile, selection)
    return selection


def make_election(
    names: Sequence[str],
    ballots: Iterable[tuple[Sequence[int], int]],
    k: int,
    parties: Sequence[str] | None = None,
    title: str = "",
) -> Election:
    """Convenience constructor: candidate names in id order plus (ranking, count) pairs."""
    if parties is None:
        parties = [INDEPENDENT_PARTY] * len(names)
    candidates = tuple(
        Candidate(i, name, party) for i, (name, party) in enumerate(zip(names, parties))
    )
    profile = PreferenceProfile.from_ballots(candidates, ballots)
    return Election(profile, k, title)
