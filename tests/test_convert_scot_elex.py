import importlib.util
from pathlib import Path

import pytest

from blocaudit import parse_blt, serialize_blt
from conftest import EAST_AYRSHIRE

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


# withdrawing two of three candidates leaves one for two seats
TOO_FEW = """3 2
-1 -2
4 3 0
0
"Ann"
"Bob"
"Cat"
"Ward 5"
"""


def test_directory_run_reports_bad_files_and_converts_the_rest(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    latin = PARENS.replace("Ann", "René").encode("latin-1")
    (raw / "a_latin.blt").write_bytes(latin)
    (raw / "b_too_few.blt").write_text(TOO_FEW)
    (raw / "c_good.blt").write_text(WITHDRAWAL)
    out = tmp_path / "out"
    assert convert_scot_elex.main([str(raw), "--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["c_good.blt"]
    assert (out / "c_good.blt").read_text(encoding="utf-8") == convert_text(WITHDRAWAL)
    captured = capsys.readouterr()
    assert captured.out == "converted 1/3 files\n"
    assert f"{raw / 'a_latin.blt'}: cannot decode as UTF-8: byte 0xe9" in captured.err
    assert f"{raw / 'b_too_few.blt'}: seats must satisfy 1 <= k < m" in captured.err


def test_directory_run_reads_the_extension_in_any_case(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.blt").write_text(WITHDRAWAL)
    (raw / "B.BLT").write_text(PARENS)
    (raw / "notes.txt").write_text("not a ward\n")
    out = tmp_path / "out"
    assert convert_scot_elex.main([str(raw), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["B.BLT", "a.blt"]
    assert (out / "B.BLT").read_text(encoding="utf-8") == convert_text(PARENS)
    assert capsys.readouterr().out == "converted 2/2 files\n"


def test_canonical_file_converts_to_itself(tmp_path):
    out = tmp_path / "ward5.blt"
    assert convert_scot_elex.main([str(EAST_AYRSHIRE), "--out", str(out)]) == 0
    assert out.read_bytes() == EAST_AYRSHIRE.read_bytes()


def test_party_map_overrides_party_field():
    text = """2 1
3 1 0
2 2 1 0
0
"Ann Example","Red"
"Bob (Blue)","Green"
"Ward 6"
"""
    election = converted(text, parties={"Ann Example": "Gold"})
    # a name line with a party field keeps any parenthesis in its name
    assert names_and_parties(election) == [
        ("Ann Example", "Gold"),
        ("Bob (Blue)", "Green"),
    ]


@pytest.mark.parametrize(
    "sidecar, message",
    [
        (None, "No such file or directory"),
        ("Ren\xe9,Red\n".encode("latin-1"),
         "cannot decode as UTF-8: byte 0xe9 at offset 3"),
        (b"Ann,Red\nBob\n", "line 2: expected name,party"),
    ],
    ids=["missing", "latin-1", "one-column"],
)
def test_bad_party_sidecar_exits_2_before_converting(
    tmp_path, capsys, sidecar, message
):
    parties = tmp_path / "parties.csv"
    if sidecar is not None:
        parties.write_bytes(sidecar)
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "ward.blt").write_text(WITHDRAWAL)
    out = tmp_path / "out"
    argv = [str(raw), "--out", str(out), "--parties", str(parties)]
    assert convert_scot_elex.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{parties}: ")
    assert message in captured.err
    assert not out.exists()
