"""Correctness checks the benchmark runs, untimed, after its timed passes.

Every check goes through blocaudit's public API: `tabulate`, the public
`check_*` definitions, `qpsc_method` and `remove_ballots`. Digests cover the
records byte for byte and every base tabulation's round log as exact
rationals (totals, quotas, exhausted weight, keep factors), never the
truncated decimals the CLI prints.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

from blocaudit.criteria import check_ilvb, check_iwvb, check_iwvb_star
from blocaudit.methods import tabulate
from blocaudit.profiles import Election, remove_ballots, selection_from_rankings
from blocaudit.psc import qpsc_method

CHECKS = {"ILVB": check_ilvb, "IWVB": check_iwvb, "IWVB_STAR": check_iwvb_star}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def round_log_digest(result) -> str:
    winners, log = result

    def exact(values):
        return {str(c): str(v) for c, v in sorted(values.items())}

    doc = {
        "method": log.method,
        "quota": None if log.quota is None else str(log.quota),
        "winners": sorted(winners.members),
        "tie_flag": winners.tie_flag,
        "notes": list(log.notes),
        "ties": [[t.round, t.kind, list(t.tied), list(t.chosen)]
                 for t in log.tie_events],
        "rounds": [
            {
                "number": r.number,
                "quota": None if r.quota is None else str(r.quota),
                "exhausted": str(r.exhausted),
                "threshold": r.threshold,
                "totals": exact(r.totals),
                "keep": None if r.keep_factors is None else exact(r.keep_factors),
                "events": [[e.kind, e.candidate] for e in r.events],
            }
            for r in log.rounds
        ],
    }
    return sha(json.dumps(doc, sort_keys=True))


def lines_by_election(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in text.splitlines():
        if line.strip():
            out.setdefault(json.loads(line)["election_id"], []).append(line)
    return out


def reverify(line: str, election: Election) -> bool:
    """A JSON-lines record re-verifies through its public check."""
    record = json.loads(line)
    selection = selection_from_rankings(
        election.profile,
        [(tuple(e["ranking"]), e["count"]) for e in record["removed"]],
    )
    fresh = CHECKS[record["criterion"]](election, record["method"], selection)
    return (
        fresh is not None
        and sorted(fresh.original_winners.members) == record["winners_before"]
        and sorted(fresh.modified_winners.members) == record["winners_after"]
    )


def published_mismatch(election: Election, expected: dict) -> str | None:
    """Compare a fixture's count with its published table; None when it agrees."""
    result = tabulate(election, expected["method"])
    got = {"quota": result.log.quota, "winners": sorted(result.winners.members)}
    if got["quota"] != expected["quota"] or got["winners"] != expected["winners"]:
        return f"expected {expected}, got quota {got['quota']} winners {got['winners']}"
    return None


def worstcase_mismatch(case) -> str | None:
    """A worst-case construction must flip as designed under each named method."""
    reduced = Election(
        remove_ballots(case.election.profile, case.removal), case.election.k
    )
    for method in case.methods:
        if method == "qpsc":
            rule = qpsc_method(case.options["sv"], case.options["q_mode"])
        else:
            rule = partial(tabulate, method=method)
        before, after = rule(case.election), rule(reduced)
        if (before.winners.members, after.winners.members) != (
            case.winners_before, case.winners_after
        ):
            return f"{method}: {sorted(before.winners.members)} -> " \
                   f"{sorted(after.winners.members)}"
    return None
