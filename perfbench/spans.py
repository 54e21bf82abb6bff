"""In-memory spans around blocaudit's module boundaries, for the traced run.

Tracing never edits the program: `Tracer.install` rebinds the names that
callers look up (for example `blocaudit.criteria.tabulate`, which the search
probes and the public checks call) to wrappers that record a span, and
`Tracer.uninstall` puts the originals back. A span is
[name, start, end, parent index, election id, detail]; spans are kept in a
list and summarised when the run ends. Self time is a span's duration minus
the time covered by its children, which are nested and sequential because
the traced run is single-threaded.
"""

from __future__ import annotations

import statistics
from math import comb
from pathlib import Path
from time import perf_counter

import blocaudit.cli as cli
import blocaudit.criteria as criteria

RULES = ("scottish", "meek", "ear", "cc-om", "cc-pm")

NAME, START, END, PARENT, ELECTION, DETAIL = range(6)


def _tabulate_detail(args, kwargs, result):
    election, method = args[0], args[1]
    detail = {"key": hash(election.profile.ballots)}
    if method == "meek":
        detail["rounds"] = len(result.log.rounds)
    elif method in ("cc-om", "cc-pm"):
        detail["committees"] = comb(election.profile.m, election.k)
    return detail


def _search_name(name):
    def namer(args, kwargs):
        if name == "iwvb" and kwargs.get("star_mode"):
            return "criteria.iwvb_star"
        return f"criteria.{name}"
    return namer


# (module, attribute, span name or namer, detail function or None)
_BOUNDARIES = [
    (criteria, "tabulate", lambda a, kw: f"methods.{a[1]}", _tabulate_detail),
    (cli, "tabulate", lambda a, kw: f"methods.{a[1]}", _tabulate_detail),
    (cli, "search_ilvb", _search_name("ilvb"), lambda a, kw, r: {"records": len(r)}),
    (cli, "search_iwvb", _search_name("iwvb"), lambda a, kw, r: {"records": len(r)}),
    (cli, "search_party_swaps", _search_name("party_swaps"),
     lambda a, kw, r: {"records": len(r)}),
    (criteria, "remove_ballots", "profiles.remove",
     lambda a, kw, r: {"types": len(r.ballots)}),
    (criteria, "ballots_ranking_only", "profiles.pool", None),
    (criteria, "fraction_of", "profiles.pool", None),
    (criteria, "selection_ranked_union", "profiles.pool", None),
    (cli, "load_election", "formats.load", None),
    (cli, "solid_coalitions", "psc", None),
    (cli, "psc_constraints", "psc", None),
    (cli, "enumerate_psc_committees", "psc", None),
    (cli, "audit_hare_psc", "psc", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.election = ""

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.election, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self, detail=None):
        span = self.spans[self._stack.pop()]
        span[END] = perf_counter()
        span[DETAIL] = detail

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (used for the CLI entry points)."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _wrap(self, fn, name, detail_fn):
        tracer = self
        namer = name if callable(name) else (lambda a, kw: name)
        # Batch audits elections one after another, each starting with a load,
        # so the loaded file's stem names the election of the spans that follow.
        loads = name == "formats.load"

        def wrapper(*args, **kwargs):
            if loads:
                tracer.election = Path(args[0]).stem
            tracer._open(namer(args, kwargs))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(
                    detail_fn(args, kwargs, result)
                    if detail_fn and result is not None else None
                )

        return wrapper

    def install(self):
        for module, attr, name, detail_fn in _BOUNDARIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, detail_fn))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def summarize(spans: list[list]) -> dict:
    """Per-layer totals and exact counts for one traced pass."""
    n = len(spans)
    child_time = [0.0] * n
    in_search = [""] * n
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
            parent_name = spans[parent][NAME]
            in_search[i] = (
                parent_name if parent_name.startswith("criteria.")
                else in_search[parent]
            )

    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    durations: dict[str, list[float]] = {r: [] for r in RULES}
    distinct = set()
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        self_time = duration - child_time[i]
        detail = span[DETAIL] or {}
        layer, _, rest = name.partition(".")
        if layer == "methods":
            durations.setdefault(rest, []).append(duration)
            add(f"methods.{rest}.calls", 1)
            add(f"methods.{rest}.self_s", self_time)
            add("methods.meek.rounds", detail.get("rounds", 0))
            add("methods.cc.committees", detail.get("committees", 0))
            if in_search[i]:
                search = in_search[i].partition(".")[2]
                add(f"criteria.{search}.probes", 1)
                add("criteria.probes", 1)
                distinct.add((span[ELECTION], rest, detail.get("key")))
        elif layer == "criteria":
            add(f"criteria.{rest}.search_s", duration)
            add("criteria.self_s", self_time)
            add("criteria.records", detail.get("records", 0))
        elif name == "profiles.remove":
            add("profiles.remove_s", duration)
            add("profiles.remove_calls", 1)
            add("profiles.types_rebuilt", detail.get("types", 0))
        elif name == "profiles.pool":
            add("profiles.pool_s", duration)
            add("profiles.pool_calls", 1)
        elif name == "formats.load":
            add("formats.load_s", duration)
            add("formats.load_calls", 1)
        elif name == "psc":
            add("psc.s", duration)
            add("psc.calls", 1)
        elif layer == "cli":
            add("cli.self_s", self_time)

    for rule in RULES:
        values = durations.get(rule) or []
        out[f"methods.{rule}.p50_ms"] = (
            statistics.median(values) * 1000 if values else 0.0
        )
    probes = out.get("criteria.probes", 0)
    out["criteria.probes_distinct"] = len(distinct)
    out["criteria.probe_reuse"] = len(distinct) / probes if probes else 0.0
    out["criteria.hit_ratio"] = (
        out.get("criteria.records", 0) / probes if probes else 0.0
    )
    return out
