import codecs

import pytest

from blocaudit import load_election, make_election, parse_blt, parse_csv, serialize_blt
from blocaudit.errors import InputError, ParseError

CANONICAL = """\
3 1
4 1 2 0
3 2 0
5 3 1 0
0
"Alpha","Reds"
"Beta","Blues"
"Gamma","IND"
"Tiny Ward"
"""


def test_parse_blt_canonical():
    election = parse_blt(CANONICAL)
    assert election.k == 1
    assert election.title == "Tiny Ward"
    assert [c.name for c in election.profile.candidates] == ["Alpha", "Beta", "Gamma"]
    assert [c.party for c in election.profile.candidates] == ["Reds", "Blues", "IND"]
    counts = {bt.ranking: bt.multiplicity for bt in election.profile.ballots}
    # file numbering is 1-based, ids are 0-based
    assert counts == {(0, 1): 4, (1,): 3, (2, 0): 5}
    assert election.profile.total_ballots == 12


def test_blt_roundtrip():
    election = parse_blt(CANONICAL)
    assert serialize_blt(election) == CANONICAL
    again = parse_blt(serialize_blt(election))
    assert again == election


def test_blt_roundtrip_from_make_election():
    election = make_election(
        ["x", "y"], [((1, 0), 2), ((0,), 1)], 1, parties=["P", "Q"], title="t"
    )
    assert parse_blt(serialize_blt(election)) == election


@pytest.mark.parametrize(
    "mangle,bad_line",
    [
        (lambda t: t.replace("3 1\n", "three 1\n"), 1),
        (lambda t: t.replace("4 1 2 0\n", "4 1 9 0\n"), 2),
        (lambda t: t.replace("4 1 2 0\n", "4 1 2\n"), 2),
        (lambda t: t.replace("4 1 2 0\n", "0 1 2 0\n"), 2),
        (lambda t: t.replace("4 1 2 0\n", "4 1 1 0\n"), 2),
        (lambda t: t.replace('"Beta","Blues"\n', "Beta,Blues\n"), 7),
    ],
)
def test_parse_blt_errors_carry_line_numbers(mangle, bad_line):
    with pytest.raises(ParseError) as exc_info:
        parse_blt(mangle(CANONICAL))
    assert exc_info.value.line == bad_line


def test_parse_blt_missing_terminator():
    with pytest.raises(ParseError):
        parse_blt('2 1\n3 1 0\n"A","x"\n"B","y"\n"t"\n')


CSV_TEXT = """\
seats,2
title,CSV Ward
candidate,Ann,Purples
candidate,Bob
candidate,Cat,Purples
6,Ann,Bob
4,Cat
3,Bob,Cat,Ann
"""


def test_parse_csv():
    election = parse_csv(CSV_TEXT)
    assert election.k == 2
    assert election.title == "CSV Ward"
    assert [c.party for c in election.profile.candidates] == [
        "Purples",
        "IND",
        "Purples",
    ]
    counts = {bt.ranking: bt.multiplicity for bt in election.profile.ballots}
    assert counts == {(0, 1): 6, (2,): 4, (1, 2, 0): 3}


@pytest.mark.parametrize(
    "text",
    [
        "title,x\ncandidate,A\n1,A\n",  # missing seats
        "seats,1\n1,A\n",  # ballot before any candidate rows
        "seats,1\ncandidate,A\ncandidate,A\n1,A\n",  # duplicate name
        "seats,1\ncandidate,A\ncandidate,B\n1,A,A\n",  # repeated ranking
        "seats,2\ncandidate,A\ncandidate,B\n1,A\n",  # k >= m
    ],
)
def test_parse_csv_rejects(text):
    with pytest.raises(ParseError):
        parse_csv(text)


def test_load_election_dispatches_by_suffix(tmp_path):
    blt = tmp_path / "w.blt"
    blt.write_text(CANONICAL)
    csv_file = tmp_path / "w.csv"
    csv_file.write_text(CSV_TEXT)
    assert load_election(blt).title == "Tiny Ward"
    assert load_election(csv_file).title == "CSV Ward"
    other = tmp_path / "w.txt"
    other.write_text(CANONICAL)
    unsupported = "unsupported election file extension '.txt'"
    with pytest.raises(InputError, match=unsupported):
        load_election(other)
    # the extension is refused before the file is read, so a file that is
    # not UTF-8 is refused for its extension, not for its bytes
    latin = tmp_path / "ward.txt"
    latin.write_bytes(CANONICAL.replace("Beta", "B\u00e9ta").encode("latin-1"))
    with pytest.raises(InputError, match=unsupported):
        load_election(latin)
    # the extension is read in any case
    upper = tmp_path / "W.BLT"
    upper.write_text(CANONICAL)
    assert load_election(upper).title == "Tiny Ward"


def test_load_election_refuses_a_file_not_in_utf8(tmp_path):
    latin = tmp_path / "latin.blt"
    latin.write_bytes(CANONICAL.replace("Beta", "B\u00e9ta").encode("latin-1"))
    with pytest.raises(InputError, match="cannot decode .*latin.blt as UTF-8"):
        load_election(latin)
    # a byte-order mark is read past, but its bytes still count in the offset
    marked = tmp_path / "marked.blt"
    marked.write_bytes(codecs.BOM_UTF8 + b"3 1\n\xe9\n")
    with pytest.raises(InputError, match="byte 0xe9 at offset 7$"):
        load_election(marked)


def test_serializer_rejects_embedded_quotes():
    election = make_election(['Bad "Name"', "ok"], [((0,), 1), ((1,), 1)], 1)
    with pytest.raises(InputError):
        serialize_blt(election)
