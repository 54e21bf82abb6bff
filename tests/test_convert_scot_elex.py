import importlib.util
from pathlib import Path

import pytest

from blocaudit import parse_blt, serialize_blt

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "convert_scot_elex.py"
_spec = importlib.util.spec_from_file_location("convert_scot_elex", _SCRIPT)
convert_scot_elex = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(convert_scot_elex)
convert_text = convert_scot_elex.convert_text


def converted(text, **kwargs):
    """Convert, and check the output is canonical BLT that re-parses."""
    out = convert_text(text, **kwargs)
    election = parse_blt(out)
    assert serialize_blt(election) == out
    return election


def rankings(election):
    return {bt.ranking: bt.multiplicity for bt in election.profile.ballots}


def names_and_parties(election):
    return [(c.name, c.party) for c in election.profile.candidates]


WITHDRAWAL = """4 2
-2
3 1 2 3 0
2 2 0
1 1 0
4 4 2 3 0
0
"Ann"
"Bob"
"Cat"
"Dan"
"Ward 1"
"""


def test_withdrawal_drops_candidate_and_renumbers():
    election = converted(WITHDRAWAL)
    assert election.k == 2
    assert election.title == "Ward 1"
    assert [c.name for c in election.profile.candidates] == ["Ann", "Cat", "Dan"]
    # Bob's bullet votes vanish; "1 2" and "1" merge once Bob is gone
    assert rankings(election) == {(0, 1): 3, (0,): 1, (2, 1): 4}


def test_quoting_variants():
    text = """3 1
5 1 0
4 2 3 0
3 3 0
0
Ann Example
'Bob Sample'
"Cat Test"
'Ward 2'
"""
    election = converted(text)
    assert names_and_parties(election) == [
        ("Ann Example", "IND"),
        ("Bob Sample", "IND"),
        ("Cat Test", "IND"),
    ]
    assert election.title == "Ward 2"
    assert rankings(election) == {(0,): 5, (1, 2): 4, (2,): 3}


def test_crlf_input_converts_like_lf():
    crlf = WITHDRAWAL.replace("\n", "\r\n")
    assert convert_text(crlf) == convert_text(WITHDRAWAL)


PARENS = """2 1
3 1 0
2 2 1 0
0
"Ann Example (Red Party)"
Bob Sample (Blue)
"Ward 3"
"""


def test_parenthesised_party_is_split_out():
    election = converted(PARENS)
    assert names_and_parties(election) == [
        ("Ann Example", "Red Party"),
        ("Bob Sample", "Blue"),
    ]


def test_keep_parens_leaves_name_whole():
    election = converted(PARENS, keep_parens=True)
    assert names_and_parties(election) == [
        ("Ann Example (Red Party)", "IND"),
        ("Bob Sample (Blue)", "IND"),
    ]


def test_party_map_overrides_parenthesised_party():
    election = converted(PARENS, parties={"Ann Example": "Green"})
    assert names_and_parties(election) == [
        ("Ann Example", "Green"),
        ("Bob Sample", "Blue"),
    ]


def test_withdrawing_every_ranked_candidate_is_refused():
    text = """3 1
-1 -2
4 1 2 0
0
"Ann"
"Bob"
"Cat"
"Ward 4"
"""
    with pytest.raises(convert_scot_elex.InputError, match="no usable ballots"):
        convert_text(text)
