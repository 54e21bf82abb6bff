"""Command-line interface.

Subcommands:

- tabulate: run one voting rule on one election file, print the round log.
- audit: run violation searches on one election file, emit JSON-lines.
- batch: audit a directory of election files with a worker pool, resumable,
  producing deterministic CSV reports.
- gen: write a worst-case construction as a canonical BLT plus a manifest.
- psc: print solid coalitions, quota constraints, compatible committees,
  and optionally the constrained scoring winner or a Hare-quota audit.

batch keeps its append-only outputs in one table, _LEDGERS: each file it
appends to as an election finishes, with the reader of a line's election id.
One filter at the start, one append per finished election and one stable
sort at the end run over every ledger, so a resumed run's ledgers equal a
clean run's.

audit and batch run the five audit rules (AUDIT_METHODS) and share one
settings parser and one per-file audit: audit reads its settings from flags,
batch from its config file, and both validate them before any election runs.

batch spot-checks every hundredth record with criteria.verify_record, which
compares the whole record with the one the public check returns.

Exit codes: 0 success, 1 a batch record that failed its spot check (the
reports are still written), 2 input problems (unreadable or malformed files,
bad parameters), 3 computation refusals (non-convergence, enumeration guards,
oracle budgets; one rule's refusal drops only that rule's records, and batch
names the rule in errors.txt and retries the election on --resume).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from .criteria import (
    CRITERIA,
    ProbeSession,
    SearchParams,
    is_record,
    record_to_json,
    search_ilvb,
    search_iwvb,
    search_party_swaps,
    verify_record,
)
from .errors import ComputationError, InputError
from .formats import PARSERS, load_election, read_utf8, serialize_blt
from .methods import (
    AUDIT_METHODS,
    METHOD_TAGS,
    ScoringVector,
    positional_scores,
    result_to_json,
    tabulate,
)
from .profiles import Election, selection_ballots
from .psc import (
    QUOTAS,
    _best_compatible,
    audit_hare_psc,
    constraint_to_json,
    enumerate_psc_committees,
    psc_constraints,
    solid_coalitions,
)
from .rationals import decimal_string, parse_rational
from .worstcase import FAMILIES, GeneratorSpec, generate

_CRITERION_FLAGS = {"ilvb": "ILVB", "iwvb": "IWVB", "iwvb-star": "IWVB_STAR"}


def _parse_list(text: str, allowed: tuple[str, ...], label: str) -> list[str]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise InputError(f"empty {label} list")
    for i, item in enumerate(items):
        if item not in allowed:
            raise InputError(
                f"unknown {label} {item!r}; expected one of {', '.join(allowed)}"
            )
        if item in items[:i]:
            raise InputError(f"duplicate {label} {item!r}")
    return items


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


# The audit settings and the parser of each one's text value.
_SETTINGS = {
    "methods": lambda text: _parse_list(text, AUDIT_METHODS, "method"),
    "criteria": lambda text: [
        _CRITERION_FLAGS[c]
        for c in _parse_list(text, tuple(_CRITERION_FLAGS), "criterion")
    ],
    "sigma_l": int,
    "sigma_w": int,
    "party_swaps": {"true": True, "false": False}.__getitem__,
    "workers": _positive_int,
}


def _parse_settings(entries) -> dict:
    """The audit settings from (where, key, text) entries, defaults for the rest.

    Both audit's flags and batch's config lines come here, and every value
    is checked here, SearchParams included, before any election runs. where
    (a config file's "path:line: ") prefixes the errors of its entry.
    """
    settings = {"methods": AUDIT_METHODS, "criteria": CRITERIA,
                "party_swaps": False, "workers": None}
    sigmas = {}
    for where, key, text in entries:
        value = _read_setting(where, key, text)
        (sigmas if key.startswith("sigma") else settings)[key] = value
    settings["params"] = SearchParams(**sigmas)
    return settings


def _read_setting(where: str, key: str, text: str):
    if key not in _SETTINGS:
        raise InputError(f"{where}unknown key {key!r}; "
                         f"expected one of {', '.join(_SETTINGS)}")
    try:
        return _SETTINGS[key](text)
    except (KeyError, ValueError):
        raise InputError(f"{where}cannot read {key}={text!r}") from None


def _parse_sv(text: str) -> ScoringVector:
    try:
        parts = tuple(parse_rational(p) for p in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse scoring vector {text!r}: {exc}") from exc
    return ScoringVector(parts)


# ---------------------------------------------------------------- tabulate


def _render_rounds(election: Election, result) -> str:
    profile = election.profile
    names = {c.id: c.name for c in profile.candidates}
    winners, log = result
    lines = []
    title = election.title or "(untitled)"
    lines.append(f"{title}: {profile.m} candidates, {election.k} seats, "
                 f"{profile.total_ballots} ballots, method {log.method}")
    if log.quota is not None:
        lines.append(f"quota {decimal_string(log.quota)}")
    for rnd in log.rounds:
        header = f"round {rnd.number}"
        if rnd.threshold is not None:
            header += f" (rank threshold {rnd.threshold})"
        lines.append(header)
        for cid in sorted(rnd.totals):
            marks = [
                ev.kind for ev in rnd.events if ev.candidate == cid
            ]
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            lines.append(
                f"  {names[cid]:<24}{decimal_string(rnd.totals[cid]):>14}{suffix}"
            )
    for note in log.notes:
        lines.append(f"note: {note}")
    winner_names = ", ".join(names[c] for c in sorted(winners.members))
    lines.append(f"winners: {winner_names}")
    if winners.tie_flag:
        lines.append("tie-break influenced the winner set (tie_flag set)")
    return "\n".join(lines)


def cmd_tabulate(args) -> int:
    election = load_election(args.path)
    sv = _parse_sv(args.sv) if args.sv else None
    result = tabulate(election, args.method, sv=sv)
    if args.json:
        print(json.dumps(result_to_json(election, result), indent=2))
    else:
        print(_render_rounds(election, result))
    return 0


# ------------------------------------------------------------------- audit


def _audit_one(election: Election, method, criteria, params, party_swaps):
    """One rule's violation records for one election, and whether its base tied.

    The records come in a deterministic order. The searches share one probe
    session (see ProbeSession) and find nothing when the base count is tied.
    """
    session = ProbeSession(election, method)
    records = []
    for criterion in criteria:
        if criterion == "ILVB":
            records += search_ilvb(election, method, params, session=session)
        else:
            star = criterion == "IWVB_STAR"
            records += search_iwvb(
                election, method, params, star_mode=star, session=session
            )
        if party_swaps:
            records += search_party_swaps(
                election, method, params, criterion, session=session
            )
    return records, session.before.tie_flag


def _audit_file(path: Path, settings: dict):
    """One election file's records (JSON dicts), tied rules and rule error lines."""
    election = load_election(path)
    searches = settings["criteria"], settings["params"], settings["party_swaps"]
    records, tied, errors = [], [], []
    for method in settings["methods"]:
        try:
            found, base_tied = _audit_one(election, method, *searches)
        except ComputationError as exc:
            errors.append(f"{path.stem} {method}: {type(exc).__name__}: {exc}")
            continue
        records += [record_to_json(rec, election.profile, path.stem) for rec in found]
        if base_tied:
            tied.append(method)
    return records, tied, errors


def cmd_audit(args) -> int:
    settings = _parse_settings(
        ("", key, text) for key, text in vars(args).items()
        if key in _SETTINGS and text is not None
    )
    records, tied, errors = _audit_file(Path(args.path), settings)
    lines = [json.dumps(record) for record in records]
    if args.out:
        Path(args.out).write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    else:
        for line in lines:
            print(line)
    counts = Counter((record["criterion"], record["method"]) for record in records)
    for (criterion, method), n in sorted(counts.items()):
        print(f"{criterion} {method}: {n}", file=sys.stderr)
    print(f"total records: {len(records)}", file=sys.stderr)
    for method in tied:
        print(f"note: base tabulation tied under {method}", file=sys.stderr)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 3 if errors else 0


# ------------------------------------------------------------------- batch


def _config_entries(path: str | None):
    """(where, key, text) for each key=value line of a batch config file.

    A key may appear once; a repeat is an input error, not an override.
    """
    seen = set()
    for line_no, raw in enumerate(read_utf8(Path(path)).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{line_no}: "
        if "=" not in line:
            raise InputError(f"{where}expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key in seen:
            raise InputError(f"{where}duplicate key {key!r}")
        seen.add(key)
        yield where, key, text.strip()


def _batch_worker(task):
    """Audit one election file: its record JSON lines, tied lines and error
    lines, as plain strings for cross-process transport."""
    path_str, settings = task
    path = Path(path_str)
    try:
        records, tied, errors = _audit_file(path, settings)
    except (InputError, OSError) as exc:
        return [], [], [f"{path.stem}: {type(exc).__name__}: {exc}"]
    return (
        [json.dumps(record) for record in records],
        [f"{path.stem} {method}" for method in tied],
        errors,
    )


def _record_election(line: str) -> str | None:
    """The election id of a records.jsonl line; None for a line cut short or
    one that is not a whole record."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    return doc["election_id"] if is_record(doc) else None


# batch's ledgers, the files it appends to as each election finishes, each
# with the function that reads the election id from one of its lines. An
# election appends in this order: its records, its tied rules, and last its
# id, once it ran without error.
_LEDGERS = {
    "records.jsonl": _record_election,
    "tied.txt": lambda line: line.rsplit(" ", 1)[0],
    "done.txt": str,
}


def cmd_batch(args) -> int:
    corpus = Path(args.dir)
    if not corpus.is_dir():
        raise InputError(f"not a directory: {corpus}")
    entries = list(_config_entries(args.config)) if args.config else []
    if args.workers is not None:
        entries.append(("", "workers", args.workers))
    settings = _parse_settings(entries)
    workers = settings["workers"] or _read_setting(
        "RCV_AUDIT_WORKERS: ", "workers", os.environ.get("RCV_AUDIT_WORKERS", "1")
    )
    out_dir = Path(args.out) if args.out else corpus / "audit_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    ledgers = {out_dir / name: election_of for name, election_of in _LEDGERS.items()}
    *_, done_path = ledgers  # the table lists the done ledger last

    files = sorted(
        [p for p in corpus.iterdir() if p.suffix.lower() in PARSERS],
        key=lambda p: (p.stem, p.name),
    )
    by_id: dict[str, Path] = {}
    dup_errors = []
    for p in files:
        if p.stem in by_id:
            dup_errors.append(f"{p}: duplicate election id {p.stem!r}")
        else:
            by_id[p.stem] = p

    done: set[str] = set()
    if args.resume and done_path.exists():
        # a last id without its newline was cut short, so it is not done
        *ids, _cut = done_path.read_text(encoding="utf-8").split("\n")
        done = set(ids)
    # Keep only the lines of elections that are done. Without --resume that
    # empties every ledger; after a crash it drops the lines of an election
    # that was appended but not yet marked done, which its re-audit writes.
    for path, election_of in ledgers.items():
        if path.exists():
            _rewrite_by_election(path, election_of, done.__contains__)

    pending = [eid for eid in sorted(by_id) if eid not in done]
    tasks = [(str(by_id[eid]), settings) for eid in pending]
    # errors.txt starts afresh: every election that errored before is retried.
    with ExitStack() as stack:
        outs = [
            stack.enter_context(path.open("a", encoding="utf-8")) for path in ledgers
        ]
        err_f = stack.enter_context(
            (out_dir / "errors.txt").open("w", encoding="utf-8")
        )
        err_f.writelines(line + "\n" for line in dup_errors)
        run = map
        if workers > 1 and len(tasks) > 1:
            # imported here, so no other command loads the process machinery
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for eid, (records, tied, errors) in zip(pending, run(_batch_worker, tasks)):
            # only an election that ran without error is marked done
            appended = (records, tied, [] if errors else [eid], errors)
            for f, lines in zip((*outs, err_f), appended):
                f.writelines(line + "\n" for line in lines)
                f.flush()

    # A retried election's lines were appended after the rest; put every
    # ledger back in election order, where a clean run writes it.
    record_lines, _, done_lines = (
        _rewrite_by_election(path, election_of)
        for path, election_of in ledgers.items()
    )
    all_records = [json.loads(line) for line in record_lines]
    errored = len(dup_errors) + len(by_id.keys() - set(done_lines))
    _write_batch_reports(out_dir, all_records)

    checked = failures = 0
    for i, record in enumerate(sorted(
        all_records, key=lambda r: (r["election_id"], r["method"], r["criterion"])
    )):
        if i % 100 == 0 and record["election_id"] in by_id:
            checked += 1
            # a record that can no longer be rebuilt fails its check too
            try:
                election = load_election(by_id[record["election_id"]])
                passed, why = verify_record(record, election), ""
            except (InputError, ComputationError, OSError) as exc:
                passed, why = False, f": {type(exc).__name__}: {exc}"
            if not passed:
                failures += 1
                print(f"spot-check FAILED: {record}{why}", file=sys.stderr)
    print(
        f"audited {len(pending)} elections "
        f"({len(by_id) - len(pending)} skipped as done); "
        f"{errored} errored (see errors.txt); {len(all_records)} records; "
        f"spot-checked {checked}, {failures} failures",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _rewrite_by_election(path: Path, election_of, keep=bool) -> list[str]:
    """path's lines whose election id keep accepts, stably sorted by that id.

    By default every line naming an election is kept. path is rewritten
    through a temp file and os.replace when that changes it.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = sorted((line for line in lines if keep(election_of(line))), key=election_of)
    if kept != lines:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("".join(line + "\n" for line in kept), encoding="utf-8")
        os.replace(tmp, path)
    return kept


def _write_batch_reports(out_dir: Path, records: list[dict]):
    keys = [(r["election_id"], r["method"], r["criterion"]) for r in records]
    violations = Counter(keys)
    swaps = Counter(key for key, r in zip(keys, records) if r["party_swap"])
    with (out_dir / "rows.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["election_id", "method", "criterion", "violations", "party_swaps"]
        )
        for key, n in sorted(violations.items()):
            writer.writerow([*key, n, swaps[key]])

    # Each rows key is one election with a violation of one criterion under one rule.
    flagged = Counter((criterion, method) for _, method, criterion in violations)
    with (out_dir / "report.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["criterion", *(m.replace("-", "_") for m in AUDIT_METHODS)])
        for criterion in CRITERIA:
            writer.writerow([criterion, *(flagged[criterion, m] for m in AUDIT_METHODS)])


# --------------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    family = args.family.upper().replace("-", "_")
    if family not in FAMILIES:
        raise InputError(
            f"unknown family {args.family!r}; expected one of "
            f"{', '.join(f.lower() for f in FAMILIES)}"
        )
    spec = GeneratorSpec(family, args.k, a=args.a, b=args.b, c=args.c)
    case = generate(spec)
    out = Path(args.out) if args.out else Path(f"{family.lower()}_k{args.k}.blt")
    out.write_text(serialize_blt(case.election), encoding="utf-8")
    manifest = {
        "family": family,
        "k": args.k,
        "options": {
            key: value for key, value in case.options.items() if key != "sv"
        },
        "removal": [
            {"ranking": list(ranking), "count": count}
            for ranking, count in selection_ballots(
                case.election.profile, case.removal
            )
        ],
        "winners_before": sorted(case.winners_before),
        "winners_after": sorted(case.winners_after),
        "methods": list(case.methods),
    }
    if "sv" in case.options:
        manifest["options"]["sv"] = [str(x) for x in case.options["sv"].s]
    manifest_path = out.with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} and {manifest_path}")
    return 0


# --------------------------------------------------------------------- psc


def cmd_psc(args) -> int:
    election = load_election(args.path)
    q = QUOTAS[args.q_mode](election.profile.total_ballots, election.k)
    # The report is printed once it is complete, so a refusal prints none of it.
    report = [f"quota ({args.q_mode}): {decimal_string(q)}"]
    names = {c.id: c.name for c in election.profile.candidates}
    coalitions = solid_coalitions(election.profile)
    report.append(f"solid coalitions: {len(coalitions)}")
    for coalition in coalitions:
        members = ", ".join(names[c] for c in sorted(coalition.supported_set))
        report.append(f"  {{{members}}}: {coalition.size}")
    constraints = psc_constraints(election.profile, election.k, q)
    report.append(f"binding constraints: {len(constraints)}")
    for constraint in constraints:
        members = ", ".join(names[c] for c in sorted(constraint.supported_set))
        report.append(
            f"  {{{members}}} (size {constraint.size}) requires {constraint.required}"
        )
    committees = enumerate_psc_committees(election, q)
    report.append(f"compatible committees: {len(committees)}")
    if args.sv:
        scores = positional_scores(election.profile, _parse_sv(args.sv))
        winners = _best_compatible(election, q, committees, scores)
        winner_names = ", ".join(names[c] for c in sorted(winners.members))
        tie = " (tie)" if winners.tie_flag else ""
        report.append(f"scoring winner: {winner_names}{tie}")
    if args.audit:
        result = tabulate(election, args.audit)
        bad = audit_hare_psc(election, result.winners)
        report.append(f"{len(bad)} violated constraints at the Hare quota "
                      f"for {args.audit} winners")
        for constraint in bad:
            report.append(f"  {json.dumps(constraint_to_json(constraint))}")
    print("\n".join(report))
    return 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocaudit",
        description="Multiwinner ranked-ballot tabulation and "
        "ballot-removal fairness audits, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tabulate", help="run one voting rule on one election file")
    p.add_argument("path")
    p.add_argument(
        "--method", "-m", default="scottish", choices=METHOD_TAGS,
        help="voting rule (default scottish)",
    )
    p.add_argument("--sv", help="positional scoring vector, e.g. '1,0.5,0.25'")
    p.add_argument("--json", action="store_true", help="emit the full round log as JSON")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("audit", help="search one election for removal violations")
    p.add_argument("path")
    # Each dest is a key of _SETTINGS; a flag not given stays None.
    p.add_argument(
        "--method", "-m", dest="methods",
        help="comma-separated methods (default all five)",
    )
    p.add_argument("--criteria", help="comma-separated criteria (default all three)")
    p.add_argument("--sigma-l")
    p.add_argument("--sigma-w")
    p.add_argument("--party-swaps", action="store_const", const="true")
    p.add_argument("--out", help="write JSON-lines here instead of stdout")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("batch", help="audit a directory of election files")
    p.add_argument("dir")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="output directory (default DIR/audit_out)")
    p.add_argument("--workers", help="worker processes, at least 1 "
                   "(default config, then RCV_AUDIT_WORKERS, then 1)")
    p.add_argument("--resume", action="store_true",
                   help="skip elections already in done.txt")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("gen", help="write a worst-case construction as BLT")
    p.add_argument("family", help="one of " + ", ".join(f.lower() for f in FAMILIES))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--out", help="output BLT path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("psc", help="proportionality analysis of one election file")
    p.add_argument("path")
    p.add_argument("--q-mode", choices=tuple(QUOTAS), default="droop",
                   dest="q_mode")
    p.add_argument("--sv", help="scoring vector for the constrained scoring rule")
    p.add_argument("--audit", choices=METHOD_TAGS,
                   help="tabulate with this method and audit at the Hare quota")
    p.set_defaults(func=cmd_psc)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; main reuses it for every call."""
    return build_parser()


def main(argv=None) -> int:
    # Like stderr, stdout writes what its encoding cannot encode (a name in
    # an ASCII locale) as backslash escapes; a stream without reconfigure
    # (an in-memory capture) is left as it is.
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    args = _parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
