"""Canonical election file formats.

Every input file (BLT, CSV or a batch config) is read by read_utf8 as
UTF-8, with or without a byte-order mark; a file that is not UTF-8 is an
InputError naming it once. scripts/convert_scot_elex.py reads council files
and its party sidecar through read_utf8 too. serialize_blt writes no mark,
and every file the CLI writes is UTF-8 whatever the locale.

BLT (text, UTF-8, LF):
    line 1:        "m k"
    ballot lines:  "mult c1 c2 ... ct 0"   (1-based candidate indices)
    a lone "0" line ends the ballot section
    m lines:       "Name" or "Name","Party"   (party defaults to IND)
    final line:    "Title"

CSV:
    seats,k
    title,Some Title            (optional)
    candidate,Name[,Party]      (one per candidate, in id order)
    mult,name1,name2,...        (ballot rows, ranked names)

The serializer emits BLT only: ballot types sorted lexicographically by
ranking, party always present, duplicate rankings already merged. Parsing
then serializing any well-formed file is a fixed point.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .errors import InputError, ParseError
from .profiles import (
    Candidate,
    Election,
    INDEPENDENT_PARTY,
    PreferenceProfile,
)


def _parse_quoted(text: str, line_no: int) -> tuple[str, str]:
    """Read a leading double-quoted string; return (content, rest-of-line)."""
    if not text.startswith('"'):
        raise ParseError(f"expected a quoted string, got {text!r}", line_no)
    end = text.find('"', 1)
    if end == -1:
        raise ParseError("unterminated quoted string", line_no)
    return text[1:end], text[end + 1 :].strip()


def parse_blt(text: str) -> Election:
    lines = text.splitlines()
    cursor = 0

    def next_line() -> tuple[str, int] | None:
        nonlocal cursor
        while cursor < len(lines):
            cursor += 1
            stripped = lines[cursor - 1].strip()
            if stripped:
                return stripped, cursor
        return None

    got = next_line()
    if got is None:
        raise ParseError("empty file", 1)
    header, header_no = got
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(
            f"malformed header: expected 'm k', got {header!r}", header_no
        )
    try:
        m, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(
            f"malformed header: expected two integers, got {header!r}", header_no
        ) from None
    if m < 1:
        raise ParseError(f"candidate count must be positive, got {m}", header_no)

    rankings: list[tuple[tuple[int, ...], int]] = []
    terminated = False
    while True:
        got = next_line()
        if got is None:
            break
        line, line_no = got
        tokens = line.split()
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-integer token in ballot line {line!r}", line_no) from None
        if values == [0]:
            terminated = True
            break
        mult = values[0]
        if mult < 1:
            raise ParseError(f"non-positive ballot multiplicity {mult}", line_no)
        if values[-1] != 0:
            raise ParseError("ballot line does not end with 0", line_no)
        raw_ranking = values[1:-1]
        if not raw_ranking:
            raise ParseError("ballot ranks no candidates", line_no)
        seen: set[int] = set()
        for c in raw_ranking:
            if not 1 <= c <= m:
                raise ParseError(
                    f"candidate index {c} out of range 1..{m}", line_no
                )
            if c in seen:
                raise ParseError(
                    f"candidate {c} appears twice in one ranking", line_no
                )
            seen.add(c)
        rankings.append((tuple(c - 1 for c in raw_ranking), mult))
    if not terminated:
        raise ParseError("missing ballot terminator line '0'", len(lines) or 1)
    if not rankings:
        raise ParseError("file contains no ballots", header_no)

    candidates = []
    for cid in range(m):
        got = next_line()
        if got is None:
            raise ParseError(
                f"expected {m} candidate name lines, file ended after {cid}",
                len(lines) or 1,
            )
        line, line_no = got
        name, rest = _parse_quoted(line, line_no)
        party = INDEPENDENT_PARTY
        if rest:
            if not rest.startswith(","):
                raise ParseError(
                    f"unexpected content after candidate name: {rest!r}", line_no
                )
            party, tail = _parse_quoted(rest[1:].strip(), line_no)
            if tail:
                raise ParseError(
                    f"unexpected content after party tag: {tail!r}", line_no
                )
            if not party:
                raise ParseError("empty party tag", line_no)
        if not name:
            raise ParseError("empty candidate name", line_no)
        candidates.append(Candidate(cid, name, party))

    title = ""
    got = next_line()
    if got is not None:
        line, line_no = got
        title, rest = _parse_quoted(line, line_no)
        if rest:
            raise ParseError(f"unexpected content after title: {rest!r}", line_no)
        trailing = next_line()
        if trailing is not None:
            raise ParseError(
                f"unexpected content after title line: {trailing[0]!r}", trailing[1]
            )

    profile = PreferenceProfile.from_ballots(candidates, rankings)
    try:
        return Election(profile, k, title)
    except ValueError as exc:
        raise ParseError(str(exc), header_no) from None


def parse_csv(text: str) -> Election:
    rows = list(csv.reader(io.StringIO(text)))
    seats: int | None = None
    title = ""
    names: list[str] = []
    parties: list[str] = []
    name_to_id: dict[str, int] = {}
    rankings: list[tuple[tuple[int, ...], int]] = []

    for line_no, row in enumerate(rows, 1):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        key = cells[0].lower()
        if key == "seats":
            if len(cells) < 2:
                raise ParseError("seats row needs a value", line_no)
            try:
                seats = int(cells[1])
            except ValueError:
                raise ParseError(f"bad seat count {cells[1]!r}", line_no) from None
        elif key == "title":
            title = cells[1] if len(cells) > 1 else ""
        elif key == "candidate":
            if len(cells) < 2 or not cells[1]:
                raise ParseError("candidate row needs a name", line_no)
            name = cells[1]
            if name in name_to_id:
                raise ParseError(f"duplicate candidate name {name!r}", line_no)
            party = cells[2] if len(cells) > 2 and cells[2] else INDEPENDENT_PARTY
            name_to_id[name] = len(names)
            names.append(name)
            parties.append(party)
        else:
            try:
                mult = int(cells[0])
            except ValueError:
                raise ParseError(
                    f"expected a ballot row starting with a count, got {cells[0]!r}",
                    line_no,
                ) from None
            if mult < 1:
                raise ParseError(f"non-positive multiplicity {mult}", line_no)
            ranked = [c for c in cells[1:] if c]
            if not ranked:
                raise ParseError("ballot row ranks no candidates", line_no)
            ranking = []
            for name in ranked:
                if name not in name_to_id:
                    raise ParseError(f"unknown candidate name {name!r}", line_no)
                ranking.append(name_to_id[name])
            if len(set(ranking)) != len(ranking):
                raise ParseError("candidate appears twice in one ranking", line_no)
            rankings.append((tuple(ranking), mult))

    if seats is None:
        raise ParseError("missing 'seats' row", 1)
    if not names:
        raise ParseError("no candidate rows", 1)
    if not rankings:
        raise ParseError("no ballot rows", 1)
    candidates = [
        Candidate(i, name, party)
        for i, (name, party) in enumerate(zip(names, parties))
    ]
    profile = PreferenceProfile.from_ballots(candidates, rankings)
    try:
        return Election(profile, seats, title)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def _quotable(value: str, label: str) -> str:
    if '"' in value:
        raise InputError(f"{label} {value!r} contains a double quote")
    if "\n" in value or "\r" in value:
        raise InputError(f"{label} {value!r} contains a line break")
    return value


def serialize_blt(election: Election) -> str:
    profile = election.profile
    out = [f"{profile.m} {election.k}"]
    for bt in profile.ballots:
        cells = [str(bt.multiplicity), *(str(c + 1) for c in bt.ranking), "0"]
        out.append(" ".join(cells))
    out.append("0")
    for cand in profile.candidates:
        name = _quotable(cand.name, "candidate name")
        party = _quotable(cand.party, "party tag")
        out.append(f'"{name}","{party}"')
    out.append(f'"{_quotable(election.title, "title")}"')
    return "\n".join(out) + "\n"


# The parser of each election file extension, compared lower-cased.
PARSERS = {".blt": parse_blt, ".csv": parse_csv}


def read_utf8(path: Path) -> str:
    """The text of the file at path, without a leading byte-order mark.

    A file that is not UTF-8 is an InputError naming the path, the byte and
    its offset in the file.
    """
    try:
        # decoded as plain UTF-8, so an offset counts the mark's three bytes
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot decode {path} as UTF-8: byte {exc.object[exc.start]:#04x} "
            f"at offset {exc.start}"
        ) from exc


def load_election(path: str | Path) -> Election:
    """Read a .blt or .csv election file (the extension in any case)."""
    path = Path(path)
    parse = PARSERS.get(path.suffix.lower())
    if parse is None:
        raise InputError(f"unsupported election file extension {path.suffix!r}")
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    election = parse(text)
    if not election.title:
        election = Election(election.profile, election.k, path.stem)
    return election
