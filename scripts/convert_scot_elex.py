#!/usr/bin/env python3
"""Convert council-published STV ballot files to this package's canonical BLT.

Scottish council election files circulate in a family of BLT-like layouts
that differ from the strict canonical form this package reads:

- candidate name lines may be unquoted, single-quoted, or double-quoted,
  and usually carry no party field (a canonical ``"Name","Party"`` line
  is read as a name and its party);
- a withdrawal line (minus-signed candidate numbers) may precede the
  ballot lines;
- blank lines, CRLF endings, and trailing junk after the title are common.

This script normalizes all of that:

1. header ``m k`` is kept;
2. withdrawn candidates and repeated preferences are deleted from every
   ballot and the remaining candidates are renumbered densely (standard
   pre-count withdrawal handling); the profile merges the rankings this
   makes equal;
3. parties come from an optional sidecar CSV (``--parties``) with
   ``name,party`` rows, which override any party the file gives; anyone
   with no party gets ``IND``. Party labels embedded in a name line without
   a party field as a trailing parenthetical, e.g.
   ``"Alice Example (Example Party)"``, are split out automatically
   unless ``--keep-parens`` is given;
4. output is written through the package serializer as UTF-8, so the
   result is byte-stable and guaranteed to re-parse.

Ballot files and the sidecar are read by ``formats.read_utf8``, as the core
reads its own files: UTF-8, with or without a byte-order mark.

Usage:
    convert_scot_elex.py WARD.blt --out canonical/WARD.blt
    convert_scot_elex.py raw_dir/ --out canonical/ --parties parties.csv

A directory run converts every ``.blt`` file in it, the extension in any
case. Each failure line names its file once: a file that cannot be read or
is not UTF-8 is named by that message, and one that does not convert, or a
sidecar row without a party, is reported as ``<path>: <message>``. A file
that fails leaves the rest to be converted; a sidecar that fails stops the
run before anything is converted. Either exits 2.

The tabulation and audit core never parses third-party layouts directly;
all corpus files must pass through this converter first.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blocaudit.errors import InputError, ParseError  # noqa: E402
from blocaudit.formats import read_utf8, serialize_blt  # noqa: E402
from blocaudit.profiles import make_election  # noqa: E402

_PAREN_PARTY = re.compile(r"^(?P<name>.*\S)\s*\((?P<party>[^()]+)\)\s*$")
_NAME_PARTY = re.compile(r'^"(?P<name>[^"]*)"\s*,\s*"(?P<party>[^"]*)"$')


def _unquote(line: str) -> str:
    line = line.strip()
    for quote in ('"', "'"):
        if len(line) >= 2 and line.startswith(quote) and line.endswith(quote):
            return line[1:-1].strip()
    return line


def _name_and_party(line: str) -> tuple[str, str]:
    """A name line's name, and its party, or "" when it gives none."""
    match = _NAME_PARTY.match(line.strip())
    if match:
        return match.group("name").strip(), match.group("party").strip()
    return _unquote(line), ""


def _read_party_map(path: Path) -> dict[str, str]:
    parties: dict[str, str] = {}
    rows = csv.reader(io.StringIO(read_utf8(path), newline=""))
    for row_no, row in enumerate(rows, start=1):
        if not row or not "".join(row).strip():
            continue
        if len(row) < 2:
            raise InputError(f"{path}: line {row_no}: expected name,party")
        parties[row[0].strip()] = row[1].strip()
    return parties


def convert_text(
    text: str,
    parties: dict[str, str] | None = None,
    keep_parens: bool = False,
) -> str:
    """Normalize one council-style BLT text to canonical form."""
    lines = [ln.strip() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 2 or not all(p.lstrip("-").isdigit() for p in header):
        raise ParseError(f"malformed header: {lines[0]!r}", line=1)
    m, k = int(header[0]), int(header[1])

    pos = 1
    withdrawn: set[int] = set()
    if pos < len(lines) and lines[pos].split() and all(
        tok.startswith("-") and tok[1:].isdigit() for tok in lines[pos].split()
    ):
        withdrawn = {int(tok[1:]) for tok in lines[pos].split()}
        pos += 1
    keep = [i for i in range(1, m + 1) if i not in withdrawn]
    renumber = {old: new for new, old in enumerate(keep)}

    ballots: list[tuple[tuple[int, ...], int]] = []
    while pos < len(lines):
        tokens = lines[pos].split()
        if tokens == ["0"]:
            pos += 1
            break
        if not all(tok.lstrip("-").isdigit() for tok in tokens):
            raise ParseError(f"malformed ballot line: {lines[pos]!r}", line=pos + 1)
        numbers = [int(tok) for tok in tokens]
        if len(numbers) < 2 or numbers[-1] != 0:
            raise ParseError(
                f"ballot line must end with 0: {lines[pos]!r}", line=pos + 1
            )
        count, prefs = numbers[0], numbers[1:-1]
        if count <= 0:
            raise ParseError(f"non-positive ballot count: {count}", line=pos + 1)
        for p in prefs:
            if not 1 <= p <= m:
                raise ParseError(f"candidate number out of range: {p}", line=pos + 1)
        # withdrawn candidates and repeated preferences are dropped
        ranking = tuple(dict.fromkeys(renumber[p] for p in prefs if p in renumber))
        if ranking:
            ballots.append((ranking, count))
        pos += 1
    else:
        raise ParseError("missing ballot terminator line '0'", line=len(lines))

    raw_names = []
    while pos < len(lines) and len(raw_names) < m:
        raw_names.append(_name_and_party(lines[pos]))
        pos += 1
    if len(raw_names) < m:
        raise ParseError(
            f"expected {m} candidate name lines, found {len(raw_names)}",
            line=len(lines),
        )
    title = _unquote(lines[pos]) if pos < len(lines) else ""

    party_map = dict(parties or {})
    names: list[str] = []
    name_parties: list[str] = []
    for raw, party in raw_names:
        name = raw
        if not party and not keep_parens:
            match = _PAREN_PARTY.match(raw)
            if match:
                name, party = match.group("name"), match.group("party").strip()
        party = party_map.get(name, party_map.get(raw, party)) or "IND"
        names.append(name)
        name_parties.append(party)

    if not ballots:
        raise InputError("no usable ballots after withdrawal handling")
    try:
        # make_election merges the rankings that withdrawals made equal
        election = make_election(
            [names[i - 1] for i in keep],
            ballots,
            k,
            parties=[name_parties[i - 1] for i in keep],
            title=title,
        )
    except ValueError as exc:  # e.g. withdrawals left no more candidates than seats
        raise InputError(str(exc)) from None
    return serialize_blt(election)


def _convert_file(src: Path, dst: Path, parties, keep_parens) -> None:
    text = read_utf8(src)
    try:
        converted = convert_text(text, parties, keep_parens)
    except InputError as exc:
        raise InputError(f"{src}: {exc}") from None
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(converted, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="a council-style .blt file, or a directory of them")
    parser.add_argument("--out", required=True,
                        help="output file (or directory when src is a directory)")
    parser.add_argument("--parties", help="CSV sidecar with name,party rows")
    parser.add_argument("--keep-parens", action="store_true",
                        help="treat trailing (...) in names as part of the name")
    args = parser.parse_args(argv)

    parties = None
    if args.parties:
        try:
            parties = _read_party_map(Path(args.parties))
        except (InputError, OSError) as exc:
            print(exc, file=sys.stderr)
            return 2
    src = Path(args.src)
    failures = 0
    if src.is_dir():
        files = sorted(p for p in src.iterdir() if p.suffix.lower() == ".blt")
        if not files:
            print(f"no .blt files in {src}", file=sys.stderr)
            return 2
        for f in files:
            try:
                _convert_file(f, Path(args.out) / f.name, parties, args.keep_parens)
            except (InputError, OSError) as exc:
                failures += 1
                print(exc, file=sys.stderr)
        print(f"converted {len(files) - failures}/{len(files)} files")
    else:
        try:
            _convert_file(src, Path(args.out), parties, args.keep_parens)
        except (InputError, OSError) as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
