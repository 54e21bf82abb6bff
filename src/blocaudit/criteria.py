"""Ballot-removal fairness checks and the heuristic searches that hunt for them.

Three criteria, each phrased as "removing this bloc of ballots must not do X":

- ILVB: ballots ranking only losers are removed; the winner set must not
  change at all.
- IWVB: ballots ranking only a proper subset of the winners are removed; no
  winner outside that subset may lose their seat.
- IWVB_STAR: same removals as IWVB, but a violation is only declared when
  every candidate the removed ballots ranked keeps a seat and the committee
  still changed.

Each criterion is defined once, as a row of CRITERION_TABLE: the removals
it admits, its hit predicate, and the pool builder its searches use (ILVB:
loser-only pools per target loser at sigma_l; IWVB and IWVB_STAR: prefixes
of _transfer_order at sigma_w). check_* apply a row verbatim: tabulate
before and after, apply the predicate, return a ViolationRecord or None.
A record is the criterion's triple (the removal, the committee before it
and the committee after it) with the criterion and rule tag; the winners
an IWVB removal displaced are (before - ranked(removal)) - after. The
searches are heuristics that probe graded fractions of each pool, and
search_party_swaps restricts the same pools to removals that move one seat
between two parties. Searches over one (election, rule) can share a
ProbeSession, so each removal is scored once; audit and batch do. The
session scores every audit rule's removals from its own arrays and builds
no reduced profile: Scottish, Meek and EAR by running the rule's count
(methods.COUNTS) over the source multiplicities less the removal, without
a round log, and Chamberlin-Courant by difference (methods.CCScores). The
removal pools, their graded fractions, the ranked unions and the transfer
orders are memoised on the profile, so the sessions of every rule over one
election build each once. A rule whose base count is tie-flagged is not
searched, nor are the pairs of criterion and rule that PROVEN_IMMUNE proves
clean.

Every reported record is the one a fresh call to the public check_*
returns, never built from the probes; a search sets only its party_swap
flag. _verified runs the check's own computation (_check), whose two fresh
tabulations come from the session's verification memo: one logged
tabulate of the election per session, made the first time a record needs
it, and one of the election less each distinct removal found
(remove_ballots). Outside that memo only the session's base count
tabulates. oracle_ilvb applies check_ilvb to every loser-only removal of a
small instance and is the ground truth the heuristics are tested against.
verify_record is record_to_json's inverse: it rebuilds a JSON record and
says whether the public check returns that record, whole.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import Callable, Iterable, NamedTuple, Union

from .errors import InputError, OracleBudgetError, PreconditionError
from .methods import (
    CC_MODELS,
    COUNTS,
    METHOD_TAGS,
    CCScores,
    TabulationResult,
    WinnerSet,
    tabulate,
)
from .profiles import (
    BallotSelection,
    Election,
    PreferenceProfile,
    _validate_removal,
    ballots_ranking_only,
    fraction_of,
    remove_ballots,
    selection_ballots,
    selection_from_rankings,
    selection_ranked_union,
)

CRITERIA = ("ILVB", "IWVB", "IWVB_STAR")

DEFAULT_SIGMA_L = 10
DEFAULT_SIGMA_W = 3
DEFAULT_ORACLE_BUDGET = 200_000

# A tabulation method: either a tag understood by methods.tabulate, or a
# callable taking an Election and returning a TabulationResult. Callables may
# carry a `method_tag` attribute to name themselves in records.
MethodLike = Union[str, Callable[[Election], TabulationResult]]


@dataclass(frozen=True)
class SearchParams:
    """Granularity knobs for the heuristic searches.

    sigma_l and sigma_w set how many graded fractions of each removal pool
    are probed (the last fraction is always the whole pool). Tie-flagged
    tabulations make winner sets ambiguous, so the searches drop every
    result touching one.
    """

    sigma_l: int = DEFAULT_SIGMA_L
    sigma_w: int = DEFAULT_SIGMA_W

    def __post_init__(self):
        if self.sigma_l < 1 or self.sigma_w < 1:
            raise PreconditionError(
                f"fraction counts must be >= 1, got sigma_l={self.sigma_l}, "
                f"sigma_w={self.sigma_w}"
            )


@dataclass(frozen=True)
class ViolationRecord:
    criterion: str
    method: str
    removed: BallotSelection
    original_winners: WinnerSet
    modified_winners: WinnerSet
    party_swap: bool = False

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise PreconditionError(
                f"unknown criterion {self.criterion!r}; expected one of {CRITERIA}"
            )
        if not self.removed:
            raise PreconditionError("a violation record needs a non-empty removal")


def _method_tag(method: MethodLike) -> str:
    if isinstance(method, str):
        if method not in METHOD_TAGS:
            raise PreconditionError(
                f"unknown method tag {method!r}; expected one of {METHOD_TAGS}"
            )
        return method
    return getattr(method, "method_tag", getattr(method, "__name__", "custom"))


def _run(method: MethodLike, election: Election) -> TabulationResult:
    if isinstance(method, str):
        return tabulate(election, method)
    return method(election)


def _without(election: Election, selection: BallotSelection) -> Election:
    return Election(
        remove_ballots(election.profile, selection), election.k, election.title
    )


def _tabulated_winners(
    election: Election, method: MethodLike, selection: BallotSelection | None
) -> WinnerSet:
    """The winners of a fresh tabulation: of the election when selection is
    None, else of the election less the selection."""
    if selection is not None:
        election = _without(election, selection)
    return _run(method, election).winners


class ProbeSession:
    """The base outcome of one (election, rule) and memos of what its searches build.

    The main memo maps each removed BallotSelection to the winner set that is
    left, so every search sharing the session scores a removal once, however
    many criteria and pools probe it. The graded fractions of each removal
    pool (by allowed candidate set and sigma), the ranked union of each
    probed removal and the transfer orders (by winners and target pair) are
    memoised on the profile (removal_pools, removal_fractions, ranked_unions,
    transfer_orders), so the sessions of every rule over one election build
    each of them once. The searches read nothing else.

    No audit rule tabulates a reduced election to probe it. For "scottish",
    "meek" and "ear" the session keeps the source profile's multiplicities
    and scores a removal by running the rule's count (methods.COUNTS) over a
    copy of them less the removal, without its round log; the
    Chamberlin-Courant tags ("cc-om", "cc-pm") score it by difference
    (methods.CCScores). Only the base count of those three rules goes
    through tabulate. A callable rule is run on the reduced election
    (remove_ballots).

    A second memo, the verification memo, holds what the public checks
    compute when they re-verify the searches' records (see _verified): the
    winners of one fresh tabulation of the election, made the first time a
    record needs it, and those of one fresh tabulation of the election less
    each distinct removal found (remove_ballots). It is filled only through
    the checks' own calls and never reads the probe memo or the base count.
    """

    def __init__(self, election: Election, method: MethodLike):
        self.election = election
        self.method = method
        model = CC_MODELS.get(method) if isinstance(method, str) else None
        self._cc = None if model is None else CCScores(election, model)
        self._count = COUNTS.get(method) if isinstance(method, str) else None
        self.before = self._cc.winners if self._cc else _run(method, election).winners
        self.winners = self.before.members
        self.losers = frozenset(range(election.profile.m)) - self.winners
        self._memo: dict[BallotSelection, WinnerSet] = {}
        self._checked: dict[BallotSelection | None, WinnerSet] = {}

    def winners_after(self, selection: BallotSelection) -> WinnerSet:
        winners = self._memo.get(selection)
        if winners is None:
            if self._cc is not None:
                winners = self._cc.winners_without(selection)
            elif self._count is not None:
                profile = self.election.profile
                _validate_removal(profile, selection)
                mults = list(profile.multiplicities)
                for t, removed in selection.entries:
                    mults[t] -= removed
                winners = self._count(profile, mults, self.election.k).winners
            else:
                winners = _run(self.method, _without(self.election, selection)).winners
            self._memo[selection] = winners
        return winners

    def checked_winners(self, selection: BallotSelection | None) -> WinnerSet:
        """_tabulated_winners(election, method, selection), run once per session."""
        winners = self._checked.get(selection)
        if winners is None:
            winners = _tabulated_winners(self.election, self.method, selection)
            self._checked[selection] = winners
        return winners

    def fractions(
        self, allowed: frozenset[int], sigma: int
    ) -> tuple[BallotSelection, ...]:
        """Graded parts i/sigma, i = 1..sigma, of all ballots ranking only allowed.

        Empty and repeated parts are dropped, and so is a part holding every
        ballot; the rest keep the order of i.
        """
        profile = self.election.profile
        parts = profile.removal_fractions.get((allowed, sigma))
        if parts is None:
            total = profile.total_ballots
            pool = profile.removal_pools.get(allowed)
            if pool is None:
                pool = ballots_ranking_only(profile, allowed)
                profile.removal_pools[allowed] = pool
            graded = (fraction_of(pool, i, sigma) for i in range(1, sigma + 1))
            parts = tuple(dict.fromkeys(p for p in graded if p and p.total < total))
            profile.removal_fractions[(allowed, sigma)] = parts
        return parts

    def ranked_union(self, selection: BallotSelection) -> frozenset[int]:
        """Every candidate ranked by at least one ballot of the selection."""
        profile = self.election.profile
        ranked = profile.ranked_unions.get(selection)
        if ranked is None:
            ranked = selection_ranked_union(profile, selection)
            profile.ranked_unions[selection] = ranked
        return ranked

    def transfer_order(self, a: int, b: int) -> list[int]:
        """_transfer_order(A, B) over the winners other than A."""
        profile = self.election.profile
        key = (self.winners, a, b)
        order = profile.transfer_orders.get(key)
        if order is None:
            order = _transfer_order(profile, sorted(self.winners - {a}), a, b)
            profile.transfer_orders[key] = order
        return order


# ------------------------------------------------------------ the criteria


def _require_losers(ranked: frozenset[int], winners: frozenset[int]) -> None:
    offenders = ranked & winners
    if offenders:
        raise PreconditionError(
            f"ILVB removals must rank only losers; selection ranks winner(s) "
            f"{sorted(offenders)}"
        )


def _require_winner_subset(ranked: frozenset[int], winners: frozenset[int]) -> None:
    if not ranked <= winners or ranked == winners:
        raise PreconditionError(
            "IWVB removals must rank only a proper subset of the winners; "
            f"selection ranks {sorted(ranked)} against winners {sorted(winners)}"
        )


def _loser_pools(session: ProbeSession, a: int | None, b: int) -> list[frozenset[int]]:
    """Losers other than the target loser B; A plays no part."""
    return [session.losers - {b}]


def _prefix_pools(session: ProbeSession, a: int, b: int) -> list[frozenset[int]]:
    """Growing prefixes of the other winners in _transfer_order(A, B)."""
    order = session.transfer_order(a, b)
    return [frozenset(order[:depth]) for depth in range(1, len(order) + 1)]


class Criterion(NamedTuple):
    """One removal criterion, as the checks and the searches both read it.

    require raises PreconditionError unless a removal whose ballots rank the
    candidates `ranked` is one the criterion speaks about; hit(winners,
    ranked, after) says whether the winner set `after` left by that removal
    violates it. displaces marks the criteria whose searches range a winner
    A to displace over the winners; the others search with A = None.
    pools(session, A, B) gives the candidate sets whose ballots the searches
    remove, each probed at getattr(params, sigma) graded fractions.
    """

    require: Callable[[frozenset[int], frozenset[int]], None]
    hit: Callable[[frozenset[int], frozenset[int], frozenset[int]], bool]
    displaces: bool
    pools: Callable[[ProbeSession, int | None, int], list[frozenset[int]]]
    sigma: str


CRITERION_TABLE = {
    # The winner set changes at all.
    "ILVB": Criterion(
        _require_losers,
        lambda winners, ranked, after: after != winners,
        False,
        _loser_pools,
        "sigma_l",
    ),
    # A winner the removed ballots did not rank loses their seat.
    "IWVB": Criterion(
        _require_winner_subset,
        lambda winners, ranked, after: bool((winners - ranked) - after),
        True,
        _prefix_pools,
        "sigma_w",
    ),
    # Every ranked candidate keeps a seat, yet the committee changes.
    "IWVB_STAR": Criterion(
        _require_winner_subset,
        lambda winners, ranked, after: ranked <= after and after != winners,
        True,
        _prefix_pools,
        "sigma_w",
    ),
}


# (criterion, rule tag) pairs that admit no violation, so no search probes
# them. Take W untied. Chamberlin-Courant's unranked score is never above a
# ranked one, so a ballot ranking only losers gives W the lowest score any
# committee can get from it: removing it lowers no rival's margin over W,
# and W stays the unique best (no ILVB). A ballot ranking only members of
# R, a subset of W, gives every committee containing R the top score m - 1,
# as it gives W: removing it leaves each such committee's gap to W as it
# was, so the committee left never contains every ranked candidate while
# differing from W (no IWVB_STAR). Acceptance test 4 checks both by
# exhaustive removal on random profiles.
PROVEN_IMMUNE = frozenset(
    (criterion, tag) for criterion in ("ILVB", "IWVB_STAR") for tag in CC_MODELS
)


def _check(
    criterion: str,
    election: Election,
    method: MethodLike,
    selection: BallotSelection,
    winners: Callable[[BallotSelection | None], WinnerSet],
) -> ViolationRecord | None:
    """Apply the criterion's row to one removal.

    winners(None) is the base winner set and winners(selection) the set the
    removal leaves; each is asked for only once the check needs it.
    """
    tag = _method_tag(method)
    if not selection:
        return None
    spec = CRITERION_TABLE[criterion]
    before = winners(None)
    ranked = selection_ranked_union(election.profile, selection)
    spec.require(ranked, before.members)
    after = winners(selection)
    if not spec.hit(before.members, ranked, after.members):
        return None
    return ViolationRecord(criterion, tag, selection, before, after)


def check_ilvb(
    election: Election, method: MethodLike, selection: BallotSelection
) -> ViolationRecord | None:
    """Apply the ILVB definition to one removal. None means no violation.

    The selection must rank only candidates that lose the original election;
    anything else is a precondition error, not a non-violation. Removing
    every ballot in the profile is rejected by the removal itself.
    """
    return _check(
        "ILVB", election, method, selection,
        partial(_tabulated_winners, election, method),
    )


def check_iwvb(
    election: Election, method: MethodLike, selection: BallotSelection
) -> ViolationRecord | None:
    """Apply the IWVB definition to one removal. None means no violation.

    The selection's ranked union must be a proper subset of the original
    winners. A violation is any winner outside that union losing their seat.
    """
    return _check(
        "IWVB", election, method, selection,
        partial(_tabulated_winners, election, method),
    )


def check_iwvb_star(
    election: Election, method: MethodLike, selection: BallotSelection
) -> ViolationRecord | None:
    """Apply the IWVB_STAR definition to one removal. None means no violation.

    Preconditions are as for check_iwvb. A violation requires that every
    candidate the removed ballots ranked keeps a seat, yet the committee
    still changed.
    """
    return _check(
        "IWVB_STAR", election, method, selection,
        partial(_tabulated_winners, election, method),
    )


CHECKS = {"ILVB": check_ilvb, "IWVB": check_iwvb, "IWVB_STAR": check_iwvb_star}


# ------------------------------------------------------------- the searches


def _verified(
    session: ProbeSession,
    criterion: str,
    found: Iterable[BallotSelection],
    party_swap: bool = False,
) -> list[ViolationRecord]:
    """The public check's record of every found removal, in the order given.

    This is check_*'s own computation, with its two fresh tabulations taken
    from the session's verification memo (ProbeSession.checked_winners), so
    each is run once per session however many criteria and searches report
    the removal. A search adds nothing to the check's record but the
    party_swap flag.
    """
    out = []
    for selection in found:
        fresh = _check(
            criterion, session.election, session.method, selection,
            session.checked_winners,
        )
        if fresh is not None:
            out.append(replace(fresh, party_swap=party_swap))
    return out


def _transfer_order(
    profile: PreferenceProfile, committee: Iterable[int], a: int, b: int
) -> list[int]:
    """Order committee members by how strongly their removal pools favor A over B.

    For each C the score counts ballots that rank C above both A and B and
    rank A above B, minus those ranking B above A. Unranked candidates sit
    below all ranked ones; ties break toward the lower candidate id.

    The positions come from the profile's cached profile.ranks_of, which
    every session of the election shares: a ballot type ranking A or B gets
    the position of the higher of them and its signed multiplicity, and C
    scores the types that rank C above that position.
    """
    ranks_of = profile.ranks_of
    mults = profile.multiplicities
    # ballot type -> (position of the higher of A and B, signed multiplicity)
    side = {t: (pb, -mults[t]) for t, pb in ranks_of[b]}  # B above A or alone
    for t, pa in ranks_of[a]:
        if t not in side or pa < side[t][0]:
            side[t] = (pa, mults[t])  # A above B or alone
    scores: dict[int, int] = {}
    for c in committee:
        score = 0
        for t, pc in ranks_of[c]:
            bar = side.get(t)
            if bar is not None and pc < bar[0]:
                score += bar[1]
        scores[c] = score
    return sorted(scores, key=lambda c: (-scores[c], c))


def _search(
    criterion: str,
    election: Election,
    method: MethodLike,
    params: SearchParams | None,
    session: ProbeSession | None,
    party_swaps: bool = False,
) -> list[ViolationRecord]:
    """Probe the criterion's pools for each target pair (A, B).

    A (criterion, rule tag) pair in PROVEN_IMMUNE is not probed, and neither
    is a tie-flagged base count: the searches drop every result touching a
    tie-flagged tabulation, so none could be reported. Without party_swaps,
    A ranges over the winners when the criterion's displaces is set and is
    None otherwise. With party_swaps, A and B come from different parties,
    each pool drops both parties' candidates, and a hit counts only when it
    moves one seat from A's party to B's. Each removal found is reported
    once, in the order first found.
    """
    spec = CRITERION_TABLE[criterion]
    params = params or SearchParams()
    if session is not None and (
        session.election is not election or session.method != method
    ):
        raise PreconditionError("the probe session belongs to another election or rule")
    if isinstance(method, str) and (criterion, method) in PROVEN_IMMUNE:
        return []
    if session is None:
        session = ProbeSession(election, method)
    if session.before.tie_flag:
        return []
    profile = election.profile
    winners = session.winners
    sigma = getattr(params, spec.sigma)
    party = {c.id: c.party for c in profile.candidates}
    seats_before = Counter(party[c] for c in winners)
    found: dict[BallotSelection, None] = {}  # an insertion-ordered set
    to_displace = sorted(winners) if spec.displaces or party_swaps else [None]
    for a in to_displace:
        for b in sorted(session.losers):
            blocked = frozenset()
            if party_swaps:
                if party[a] == party[b]:
                    continue
                blocked = {c for c, p in party.items() if p in (party[a], party[b])}
            for allowed in spec.pools(session, a, b):
                allowed -= blocked
                if not allowed:
                    continue
                for selection in session.fractions(allowed, sigma):
                    ranked = session.ranked_union(selection)
                    after = session.winners_after(selection)
                    if not spec.hit(winners, ranked, after.members):
                        continue
                    if party_swaps and not _moves_one_seat(
                        party, seats_before, a, b, after.members
                    ):
                        continue
                    if after.tie_flag:
                        continue
                    found[selection] = None
    return _verified(session, criterion, found, party_swaps)


def _moves_one_seat(
    party: dict[int, str], seats_before: Counter, a: int, b: int, after: frozenset[int]
) -> bool:
    """A loses the seat, B gains one, and one seat moves from A's party to B's."""
    if a in after or b not in after:
        return False
    seats_after = Counter(party[c] for c in after)
    return (
        seats_before[party[a]] - seats_after[party[a]] == 1
        and seats_after[party[b]] - seats_before[party[b]] == 1
    )


def search_ilvb(
    election: Election,
    method: MethodLike,
    params: SearchParams | None = None,
    *,
    session: ProbeSession | None = None,
) -> list[ViolationRecord]:
    """Probe loser-only removal pools for winner-set changes.

    For each loser B, the pool is every ballot ranking only losers other
    than B (so removals can starve B's rivals of transfers without touching
    B's own column), probed at sigma_l graded fractions. A session built
    for the same election and method may be passed to share probes with
    other searches; the records are the same either way.
    """
    return _search("ILVB", election, method, params, session)


def search_iwvb(
    election: Election,
    method: MethodLike,
    params: SearchParams | None = None,
    star_mode: bool = False,
    *,
    session: ProbeSession | None = None,
) -> list[ViolationRecord]:
    """Probe winner-subset removal pools for displaced winners.

    For each pair of a winner A to displace and a loser B to promote, the
    other winners are ordered by how much their supporters' ballots favor A
    over B; pools are ballots ranking only a growing prefix of that order,
    probed at sigma_w graded fractions. star_mode applies the stricter
    IWVB_STAR predicate instead. session is as for search_ilvb.
    """
    criterion = "IWVB_STAR" if star_mode else "IWVB"
    return _search(criterion, election, method, params, session)


def search_party_swaps(
    election: Election,
    method: MethodLike,
    params: SearchParams | None = None,
    criterion: str = "ILVB",
    *,
    session: ProbeSession | None = None,
) -> list[ViolationRecord]:
    """Search for removals that move exactly one seat between two parties.

    Runs the chosen criterion's search shape for each (winner A, loser B)
    pair with A's and B's parties differing, but restricts every removal
    pool to ballots that rank nobody from either party. A record is kept
    only when A actually loses the seat, B gains one, and the two parties'
    seat counts move by exactly one in opposite directions. Candidates
    without a party are pooled under the shared independent tag. session
    is as for search_ilvb.
    """
    if criterion not in CRITERIA:
        raise PreconditionError(
            f"unknown criterion {criterion!r}; expected one of {CRITERIA}"
        )
    return _search(criterion, election, method, params, session, party_swaps=True)


def oracle_ilvb(
    election: Election,
    method: MethodLike,
    max_budget: int = DEFAULT_ORACLE_BUDGET,
) -> list[ViolationRecord]:
    """Exhaustively test every loser-only removal. Ground truth, small inputs only.

    The search space is the product over loser-only ballot types of
    (multiplicity + 1) removal counts; if that exceeds max_budget the call
    refuses up front rather than running partially. Every vector but the one
    removing all ballots goes through check_ilvb, and its records are
    returned as they are.
    """
    profile = election.profile
    winners = _run(method, election).winners.members
    losers = frozenset(range(profile.m)) - winners
    loser_types = ballots_ranking_only(profile, losers).entries
    budget = 1
    for _, mult in loser_types:
        budget *= mult + 1
        if budget > max_budget:
            raise OracleBudgetError(
                f"oracle space is {budget}+ removal vectors over "
                f"{len(loser_types)} loser-only ballot types, over the "
                f"budget of {max_budget}"
            )
    found = []
    for counts in product(*(range(mult + 1) for _, mult in loser_types)):
        entries = tuple(
            (idx, c) for (idx, _), c in zip(loser_types, counts) if c > 0
        )
        if entries and sum(counts) < profile.total_ballots:
            record = check_ilvb(election, method, BallotSelection(entries))
            if record is not None:
                found.append(record)
    return found


# The keys of record_to_json's documents and of each entry of "removed",
# with the type of each value.
_RECORD_SHAPE = {
    "election_id": str, "criterion": str, "method": str, "removed": list,
    "winners_before": list, "winners_after": list, "party_swap": bool,
}
_REMOVED_SHAPE = {"ranking": list, "count": int}


def _has_shape(doc, shape: dict) -> bool:
    return isinstance(doc, dict) and all(
        isinstance(doc.get(key), kind) for key, kind in shape.items()
    )


def is_record(doc) -> bool:
    """Whether doc is a whole record: an object with every key of _RECORD_SHAPE,
    each holding a value of its type, and each removed entry of _REMOVED_SHAPE."""
    return _has_shape(doc, _RECORD_SHAPE) and all(
        _has_shape(entry, _REMOVED_SHAPE) for entry in doc["removed"]
    )


def record_to_json(
    record: ViolationRecord, profile: PreferenceProfile, election_id: str = ""
) -> dict:
    """Flatten a record to the JSON-lines shape used by audit logs (_RECORD_SHAPE)."""
    return {
        "election_id": election_id,
        "criterion": record.criterion,
        "method": record.method,
        "removed": [
            {"ranking": list(ranking), "count": count}
            for ranking, count in selection_ballots(profile, record.removed)
        ],
        "winners_before": sorted(record.original_winners.members),
        "winners_after": sorted(record.modified_winners.members),
        "party_swap": record.party_swap,
    }


def verify_record(doc: dict, election: Election) -> bool:
    """Whether a JSON record re-verifies: the inverse of record_to_json.

    The record is rebuilt from doc against the election's profile and
    compared whole, both winner sets and their tie flags included, with the
    record a fresh call to the public check returns, party_swap copied from
    doc. A doc that is not a whole record (is_record), or a removal the
    profile cannot hold, raises InputError.
    """
    if not is_record(doc):
        raise InputError(f"not a whole violation record: {doc!r}")
    record = ViolationRecord(
        doc["criterion"],
        doc["method"],
        selection_from_rankings(
            election.profile,
            [(entry["ranking"], entry["count"]) for entry in doc["removed"]],
        ),
        WinnerSet(frozenset(doc["winners_before"])),
        WinnerSet(frozenset(doc["winners_after"])),
        doc["party_swap"],
    )
    fresh = CHECKS[record.criterion](election, record.method, record.removed)
    return fresh is not None and replace(fresh, party_swap=record.party_swap) == record
