import codecs
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import blocaudit.cli as cli
import blocaudit.criteria as criteria
import blocaudit.methods as methods
import blocaudit.psc as psc
from blocaudit import GeneratorSpec, PreconditionError, generate
from blocaudit.cli import AUDIT_METHODS, _audit_one, main
from blocaudit.criteria import (
    CRITERIA,
    SearchParams,
    search_ilvb,
    search_iwvb,
    search_party_swaps,
)
from blocaudit.worstcase import FAMILIES
from conftest import EAST_AYRSHIRE, NORTH_AYRSHIRE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- tabulate


def test_tabulate_text(capsys):
    code, out, _ = run(capsys, "tabulate", str(EAST_AYRSHIRE))
    assert code == 0
    assert "quota 833.00000" in out
    assert "winners: Knapp, Ross, Todd" in out


def test_tabulate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "tabulate", str(EAST_AYRSHIRE), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["winners"] == [1, 2, 4]
    assert doc["method"] == "scottish"
    assert doc["seats"] == 3
    assert len(doc["rounds"]) == 4


def test_tabulate_method_choice(capsys):
    code, out, _ = run(capsys, "tabulate", str(NORTH_AYRSHIRE), "-m", "meek")
    assert code == 0
    assert "winners:" in out
    # the JSON log holds the exact quota and exhausted weight of every round
    code, out, _ = run(capsys, "tabulate", str(NORTH_AYRSHIRE), "-m", "meek", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["winner_names"] == ["Burns", "Johnson", "McDonald"]
    assert len(doc["rounds"]) == 42
    assert doc["rounds"][-1]["quota"] == "940.83848"
    assert doc["rounds"][-1]["exhausted"] == "261.64604"


def test_tabulate_positional_with_vector(capsys):
    code, out, _ = run(
        capsys, "tabulate", str(EAST_AYRSHIRE), "-m", "positional",
        "--sv", "4,3,2,1,0",
    )
    assert code == 0
    assert "winners:" in out
    # a scoring vector means nothing to the other rules
    code, out, err = run(
        capsys, "tabulate", str(EAST_AYRSHIRE), "-m", "scottish", "--sv", "1,0",
    )
    assert code == 2
    assert "positional" in err
    assert out == ""


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(True)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for _ in range(2):
        code, out, _ = run(capsys, "tabulate", str(EAST_AYRSHIRE))
        assert code == 0
        assert "winners: Knapp, Ross, Todd" in out
    assert len(built) == 1


def test_tabulate_missing_file(capsys):
    code, _, err = run(capsys, "tabulate", "/no/such/file.blt")
    assert code == 2
    assert "error:" in err
    # the error is raised by the read itself, which names the path once
    assert err.count("/no/such/file.blt") == 1


def test_tabulate_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.blt"
    bad.write_text("definitely not a ballot file\n")
    code, _, err = run(capsys, "tabulate", str(bad))
    assert code == 2
    assert "error:" in err
    # a well-formed ward under an extension no parser reads
    txt = tmp_path / "ward.txt"
    shutil.copy(EAST_AYRSHIRE, txt)
    code, out, err = run(capsys, "tabulate", str(txt))
    assert code == 2
    assert out == ""
    assert "error: unsupported election file extension '.txt'" in err


def test_tabulate_file_not_in_utf8(tmp_path, capsys):
    latin = tmp_path / "latin.blt"
    latin.write_bytes(EAST_AYRSHIRE.read_bytes() + "\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "tabulate", str(latin))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot decode {latin} as UTF-8")
    assert "Traceback" not in err


def test_inputs_read_past_a_byte_order_mark(tmp_path, capsys):
    # a BLT, a CSV and a batch config each read as the copy without the mark
    csv_text = "seats,1\ncandidate,Ann\ncandidate,Bob\n3,Ann,Bob\n2,Bob\n"
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    outputs = []
    for root, mark in ((plain, b""), (marked, codecs.BOM_UTF8)):
        (root / "corpus").mkdir(parents=True)
        (root / "corpus" / "ea.blt").write_bytes(mark + EAST_AYRSHIRE.read_bytes())
        (root / "w.csv").write_bytes(mark + csv_text.encode())
        (root / "cfg.txt").write_bytes(mark + b"methods=scottish\ncriteria=ilvb\n")
        tabulated = [
            run(capsys, "tabulate", str(path), "--json")
            for path in (root / "corpus" / "ea.blt", root / "w.csv")
        ]
        code, _, _ = run(capsys, "batch", str(root / "corpus"), "--config",
                         str(root / "cfg.txt"), "--out", str(root / "out"))
        outputs.append((tabulated, code, (root / "out" / "rows.csv").read_text()))
    assert outputs[0] == outputs[1]
    tabulated, code, rows = outputs[1]
    assert [code for code, _, _ in tabulated] == [0, 0]
    assert code == 0
    assert "ea,scottish,ILVB,7,0" in rows


# ------------------------------------------------------------------- audit


def test_audit_stdout_jsonl(capsys):
    code, out, err = run(
        capsys, "audit", str(EAST_AYRSHIRE), "-m", "scottish",
        "--criteria", "ilvb",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert len(lines) == 7
    assert all(doc["criterion"] == "ILVB" for doc in lines)
    assert "total records: 7" in err


def test_audit_out_file(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    code, out, _ = run(
        capsys, "audit", str(NORTH_AYRSHIRE), "-m", "scottish",
        "--criteria", "iwvb,iwvb-star", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    docs = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert {doc["criterion"] for doc in docs} == {"IWVB", "IWVB_STAR"}
    assert any(doc["removed"] == [{"ranking": [5], "count": 206}] for doc in docs)


def test_audit_party_swaps_flag(capsys):
    code, out, _ = run(
        capsys, "audit", str(EAST_AYRSHIRE), "-m", "scottish",
        "--criteria", "ilvb", "--party-swaps",
    )
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines() if line]
    assert any(doc["party_swap"] for doc in docs)
    assert any(not doc["party_swap"] for doc in docs)


def test_audit_rejects_unknown_criterion(capsys):
    code, _, err = run(
        capsys, "audit", str(EAST_AYRSHIRE), "--criteria", "bogus"
    )
    assert code == 2
    assert "unknown criterion" in err
    # positional needs a scoring vector, so it is not one of the audit rules
    code, _, err = run(capsys, "audit", str(EAST_AYRSHIRE), "-m", "positional")
    assert code == 2
    assert "unknown method" in err


def test_audit_rejects_a_repeated_rule_or_criterion(capsys):
    # a repeat would run the searches again and print each record again
    for flag, value, message in (
        ("-m", "scottish,scottish", "duplicate method 'scottish'"),
        ("--criteria", "ilvb,iwvb,ilvb", "duplicate criterion 'ilvb'"),
    ):
        code, out, err = run(capsys, "audit", str(EAST_AYRSHIRE), flag, value)
        assert code == 2
        assert out == ""
        assert message in err


def test_audit_sigma_controls_grading(capsys):
    code, coarse, _ = run(
        capsys, "audit", str(EAST_AYRSHIRE), "-m", "scottish",
        "--criteria", "ilvb", "--sigma-l", "1",
    )
    assert code == 0
    code, fine, _ = run(
        capsys, "audit", str(EAST_AYRSHIRE), "-m", "scottish",
        "--criteria", "ilvb", "--sigma-l", "10",
    )
    assert code == 0
    assert len(coarse.splitlines()) < len(fine.splitlines())


def test_audit_one_equals_searches_run_alone(east_ayrshire, north_ayrshire):
    params = SearchParams()
    for election in (east_ayrshire, north_ayrshire):
        shared = []
        for method in AUDIT_METHODS:
            shared += _audit_one(election, method, CRITERIA, params, True)[0]
        alone = []
        for method in AUDIT_METHODS:
            for criterion in CRITERIA:
                if criterion == "ILVB":
                    alone += search_ilvb(election, method, params)
                else:
                    alone += search_iwvb(
                        election, method, params,
                        star_mode=criterion == "IWVB_STAR",
                    )
                alone += search_party_swaps(election, method, params, criterion)
        assert shared
        assert shared == alone


def test_audit_one_tabulates_each_removal_once(east_ayrshire, monkeypatch):
    # Outside re-verification (criteria._verified, the public checks' own
    # computation) nothing tabulates or removes ballots but each session's
    # base count; every probe of the three
    # integer-counting rules runs the rule's count from methods.COUNTS,
    # once per distinct removal, and the coverage rules score by difference.
    outside_checks = Counter()
    probes = Counter()  # (rule, multiplicities) a count scored without its log
    verifying = []

    def counting(name, real):
        def run(*args, **kwargs):
            if not verifying:
                key = args[1] if name == "tabulate" else None
                outside_checks[(name, key)] += 1
            return real(*args, **kwargs)
        return run

    def counting_count(tag, count):
        def run(profile, mults, k, log=False, **settings):
            if not log:
                probes[(tag, tuple(mults))] += 1
            return count(profile, mults, k, log, **settings)
        return run

    def flagged(verified):
        def run(*args, **kwargs):
            verifying.append(True)
            try:
                return verified(*args, **kwargs)
            finally:
                verifying.pop()
        return run

    for name in ("tabulate", "remove_ballots"):
        monkeypatch.setattr(criteria, name, counting(name, getattr(criteria, name)))
    for tag, count in list(methods.COUNTS.items()):
        monkeypatch.setitem(methods.COUNTS, tag, counting_count(tag, count))
    monkeypatch.setattr(criteria, "_verified", flagged(criteria._verified))
    records = []
    for method in AUDIT_METHODS:
        records += _audit_one(east_ayrshire, method, CRITERIA, SearchParams(), True)[0]
    assert records
    # one base count per session of a rule that tabulates it
    assert outside_checks == Counter({("tabulate", tag): 1 for tag in methods.COUNTS})
    assert {tag for tag, _ in probes} == set(methods.COUNTS)
    assert len(probes) > len(AUDIT_METHODS)
    assert max(probes.values()) == 1


def test_audit_verifies_each_removal_once_per_rule(
    east_ayrshire, north_ayrshire, monkeypatch
):
    # Re-verification is the public checks' computation over one session's
    # verification memo: one fresh base count per rule that has records, and
    # one fresh reduced count (and removal) per distinct removal of that
    # rule, however many criteria and party-swap searches report it. On the
    # two wards that is 17 tabulations and 13 removals for 28 records.
    verifying = []
    calls = Counter()

    def counting(name, real):
        def run(*args, **kwargs):
            if verifying:
                calls[name] += 1
            return real(*args, **kwargs)
        return run

    def flagged(verified):
        def run(*args, **kwargs):
            verifying.append(True)
            try:
                return verified(*args, **kwargs)
            finally:
                verifying.pop()
        return run

    for name in ("tabulate", "remove_ballots"):
        monkeypatch.setattr(criteria, name, counting(name, getattr(criteria, name)))
    monkeypatch.setattr(criteria, "_verified", flagged(criteria._verified))
    records = []  # (ward, rule, removal) of each record
    for ward, election in enumerate((east_ayrshire, north_ayrshire)):
        for method in AUDIT_METHODS:
            found, _ = _audit_one(election, method, CRITERIA, SearchParams(), True)
            records += [(ward, method, record.removed) for record in found]
    bases = {(ward, method) for ward, method, _ in records}
    removals = set(records)
    assert len(records) > len(removals) > len(bases)
    assert calls == Counter(
        tabulate=len(bases) + len(removals), remove_ballots=len(removals)
    )


# --------------------------------------------------------------------- gen


def test_gen_writes_blt_and_manifest(tmp_path, capsys):
    out = tmp_path / "case.blt"
    code, _, _ = run(capsys, "gen", "stv-ilvb", "--k", "2", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "case.manifest.json").read_text())
    assert manifest["family"] == "STV_ILVB"
    assert manifest["winners_before"] != manifest["winners_after"]
    # the BLT and the manifest together reproduce the flip
    code, tab_out, _ = run(capsys, "tabulate", str(out), "--json")
    doc = json.loads(tab_out)
    assert doc["winners"] == manifest["winners_before"]
    # an audit of a generated IWVB* case finds the manifest's own removal
    star = tmp_path / "star.blt"
    code, _, _ = run(capsys, "gen", "stv-iwvb-star", "--k", "3", "--out", str(star))
    assert code == 0
    manifest = json.loads(star.with_suffix(".manifest.json").read_text())
    code, out, _ = run(
        capsys, "audit", str(star), "-m", "scottish", "--criteria", "iwvb-star"
    )
    assert code == 0
    removals = [
        doc["removed"] for doc in map(json.loads, out.splitlines())
        if doc["criterion"] == "IWVB_STAR"
    ]
    assert manifest["removal"] == [{"ranking": [0], "count": 1000}]
    assert manifest["removal"] in removals


def test_gen_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "gen", "no-such-family")
    assert code == 2
    assert "unknown family" in err


def test_gen_rejects_bad_parameters(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "stv-iwvb-star", "--k", "3",
        "--a", "1000", "--b", "20", "--c", "16",
    )
    assert code == 2
    assert "error:" in err
    # a size parameter the family does not read is refused, not dropped
    for argv, name in (
        (["stv-ilvb", "--k", "2", "--a", "5"], "a"),
        (["ear-iwvb-star", "--k", "2", "--b", "3"], "b"),
    ):
        out = tmp_path / "case.blt"
        code, _, err = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 2
        assert f"does not read {name}" in err
        assert not out.exists()
        assert not out.with_suffix(".manifest.json").exists()


# each family one seat below the lowest k it builds for, and the fixed k=2
# QPSC constructions one seat above it
@pytest.mark.parametrize(
    "family, k",
    [("STV_ILVB", 0), ("EAR_ILVB", 0)]
    + [(family, 1) for family in FAMILIES if "ILVB" not in family]
    + [("QPSC_LEFT", 3), ("QPSC_RIGHT", 3)],
)
def test_gen_refuses_seats_outside_the_family(tmp_path, capsys, family, k):
    with pytest.raises(PreconditionError, match=family):
        generate(GeneratorSpec(family, k))
    out = tmp_path / "case.blt"
    code, _, err = run(
        capsys, "gen", family.lower().replace("_", "-"), "--k", str(k),
        "--out", str(out),
    )
    assert code == 2
    assert family in err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


# --------------------------------------------------------------------- psc


def test_psc_report(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "qpsc-left", "--k", "2",
                     "--out", str(tmp_path / "q.blt"))
    assert code == 0
    code, out, _ = run(capsys, "psc", str(tmp_path / "q.blt"), "--sv", "1,1/100")
    assert code == 0
    assert "solid coalitions: 5" in out
    assert "compatible committees: 5" in out
    assert "scoring winner: C, D" in out


def test_psc_hare_audit_line(capsys):
    code, out, _ = run(
        capsys, "psc", str(EAST_AYRSHIRE), "--audit", "scottish"
    )
    assert code == 0
    assert "0 violated constraints" in out


def test_psc_refusal_prints_no_partial_report(tmp_path, capsys):
    wide = tmp_path / "m21.blt"
    wide.write_text(
        "21 2\n" + "".join(f"1 {i} 0\n" for i in range(1, 22)) + "0\n"
        + "".join(f'"c{i}"\n' for i in range(1, 22)) + '"Twenty-one candidates"\n'
    )
    code, out, err = run(capsys, "psc", str(wide))
    assert code == 3
    assert out == ""
    assert err == "error: committee enumeration needs m <= 20 candidates, got 21\n"
    # Chamberlin-Courant refuses through the same guard, in the same words
    assert run(capsys, "tabulate", str(wide), "-m", "cc-om") == (3, "", err)


def test_psc_sv_enumerates_committees_once(capsys, monkeypatch):
    calls = []
    enumerate_all = psc.committees

    def counted(m, k):
        calls.append((m, k))
        return enumerate_all(m, k)

    monkeypatch.setattr(psc, "committees", counted)
    code, out, _ = run(capsys, "psc", str(EAST_AYRSHIRE), "--sv", "1,0.5")
    assert code == 0
    assert "scoring winner: " in out
    assert len(calls) == 1


# -------------------------------------------------------------------- batch


@pytest.fixture
def corpus(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(EAST_AYRSHIRE, corpus_dir / "ea.blt")
    shutil.copy(NORTH_AYRSHIRE, corpus_dir / "na.blt")
    main(["gen", "stv-ilvb", "--k", "1",
          "--out", str(corpus_dir / "gen1.blt")])
    (corpus_dir / "gen1.manifest.json").unlink()
    (corpus_dir / "broken.blt").write_text("nope\n")
    capsys.readouterr()
    return corpus_dir


CFG = "methods=scottish\ncriteria=ilvb,iwvb\nsigma_l=10\nsigma_w=3\n"
BATCH_OUTPUTS = (
    "records.jsonl", "tied.txt", "done.txt", "errors.txt", "rows.csv", "report.csv"
)


def test_batch_outputs(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "batch", str(corpus), "--config", str(cfg),
        "--out", str(out_dir),
    )
    assert code == 0
    assert "spot-checked" in err
    assert "1 errored" in err
    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "criterion,scottish,meek,ear,cc_om,cc_pm"
    assert len(report) == 4  # header + three criteria rows
    ilvb_row = report[1].split(",")
    assert ilvb_row[0] == "ILVB"
    assert int(ilvb_row[1]) >= 2  # both real wards... ea and gen1 flip
    errors = (out_dir / "errors.txt").read_text()
    assert "broken" in errors
    rows = (out_dir / "rows.csv").read_text()
    assert "ea,scottish,ILVB" in rows


def test_batch_reads_upper_case_extensions_and_lists_undecodable_files(
    tmp_path, capsys
):
    # EA.BLT is audited as load_election reads it; latin.blt, not UTF-8,
    # goes to errors.txt and the run still writes its reports
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(EAST_AYRSHIRE, corpus_dir / "EA.BLT")
    (corpus_dir / "latin.blt").write_bytes(
        EAST_AYRSHIRE.read_bytes() + "\u00e9\n".encode("latin-1")
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("methods=scottish\ncriteria=ilvb\n")
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "batch", str(corpus_dir), "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    assert "audited 2 elections" in err
    assert "1 errored" in err
    assert (out_dir / "done.txt").read_text() == "EA\n"
    [error] = (out_dir / "errors.txt").read_text().splitlines()
    assert error.startswith("latin: InputError: cannot decode")
    rows = (out_dir / "rows.csv").read_text().splitlines()
    assert rows[1:] == ["EA,scottish,ILVB,7,0"]
    assert (out_dir / "report.csv").read_text().splitlines()[1] == "ILVB,1,0,0,0,0"


def test_batch_deterministic_across_worker_counts(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    outputs = []
    for n, workers in enumerate(("1", "2")):
        out_dir = tmp_path / f"out{n}"
        code, _, _ = run(
            capsys, "batch", str(corpus), "--config", str(cfg),
            "--out", str(out_dir), "--workers", workers,
        )
        assert code == 0
        outputs.append(
            tuple(
                (out_dir / name).read_text()
                for name in ("records.jsonl", "rows.csv", "report.csv")
            )
        )
    assert outputs[0] == outputs[1]


def test_cli_import_loads_no_process_pool():
    # only batch at more than one worker needs the pool, so importing the
    # CLI, which every command does, loads none of its machinery
    package_root = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, blocaudit.cli; print(sorted("
         "{'concurrent.futures', 'multiprocessing'} & sys.modules.keys()))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_batch_resume_skips_done(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    first = (out_dir / "records.jsonl").read_text()
    code, _, err = run(
        capsys, "batch", str(corpus), "--config", str(cfg),
        "--out", str(out_dir), "--resume",
    )
    assert code == 0
    # broken.blt errored, so it is retried rather than skipped
    assert "(3 skipped as done)" in err
    assert (out_dir / "records.jsonl").read_text() == first
    assert (out_dir / "errors.txt").read_text().count("broken") == 1


def test_batch_resume_retries_fixed_election(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    broken = corpus / "broken.blt"
    resumed, clean = tmp_path / "resumed", tmp_path / "clean"
    code, _, _ = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(resumed)
    )
    assert code == 0
    assert "broken" in (resumed / "errors.txt").read_text()
    # the malformed file is fixed between the run and its resume; its id
    # sorts first, so its records belong before every other election's
    shutil.copy(EAST_AYRSHIRE, broken)
    code, _, err = run(
        capsys, "batch", str(corpus), "--config", str(cfg),
        "--out", str(resumed), "--resume",
    )
    assert code == 0
    assert "audited 1 elections (3 skipped as done)" in err
    assert (resumed / "errors.txt").read_text() == ""
    code, _, _ = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(clean)
    )
    assert code == 0
    assert '"election_id": "broken"' in (clean / "records.jsonl").read_text()
    for name in BATCH_OUTPUTS:
        assert (resumed / name).read_text() == (clean / name).read_text(), name


@pytest.mark.parametrize("victim", ["na", "tie"])
def test_batch_resume_after_crash_writes_no_duplicates(
    tmp_path, corpus, capsys, victim
):
    # a dead heat for one seat: no records, one line in tied.txt
    (corpus / "tie.blt").write_text(
        '2 1\n5 1 0\n5 2 0\n0\n"a"\n"b"\n"dead heat"\n'
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    names = ("records.jsonl", "tied.txt", "done.txt", "rows.csv", "report.csv")
    clean, resumed = tmp_path / "clean", tmp_path / "resumed"
    code, _, _ = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(clean)
    )
    assert code == 0
    # The state a crash leaves after the victim's lines were appended and
    # before it reached done.txt: elections are absorbed in id order, so
    # every earlier election is done and no later one has started.
    resumed.mkdir()
    for name, election_of in (
        ("records.jsonl", lambda line: json.loads(line)["election_id"]),
        ("tied.txt", lambda line: line.split()[0]),
    ):
        lines = (clean / name).read_text().splitlines()
        (resumed / name).write_text(
            "".join(line + "\n" for line in lines if election_of(line) <= victim)
        )
    done = (clean / "done.txt").read_text().split()
    (resumed / "done.txt").write_text(
        "".join(eid + "\n" for eid in done if eid < victim)
    )
    crashed = (resumed / "records.jsonl").read_text() + (
        resumed / "tied.txt"
    ).read_text()
    assert f'"election_id": "{victim}"' in crashed or f"{victim} scottish" in crashed
    code, _, err = run(
        capsys, "batch", str(corpus), "--config", str(cfg),
        "--out", str(resumed), "--resume",
    )
    assert code == 0
    assert f"({len([eid for eid in done if eid < victim])} skipped as done)" in err
    for name in names:
        assert (resumed / name).read_text() == (clean / name).read_text(), name


def test_batch_resume_ignores_a_cut_done_line(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(EAST_AYRSHIRE, corpus_dir / "ea.blt")
    shutil.copy(NORTH_AYRSHIRE, corpus_dir / "na.blt")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("methods=scottish\n")
    clean, resumed = tmp_path / "clean", tmp_path / "resumed"
    for out_dir in (clean, resumed):
        code, _, _ = run(
            capsys, "batch", str(corpus_dir), "--config", str(cfg),
            "--out", str(out_dir),
        )
        assert code == 0
    # a write of "na\n" cut short after its first letter
    (resumed / "done.txt").write_text("ea\nn")
    code, _, err = run(
        capsys, "batch", str(corpus_dir), "--config", str(cfg),
        "--out", str(resumed), "--resume",
    )
    assert code == 0
    assert "audited 1 elections (1 skipped as done); 0 errored" in err
    for name in BATCH_OUTPUTS:
        assert (resumed / name).read_text() == (clean / name).read_text(), name


def test_batch_election_id_with_a_space(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(EAST_AYRSHIRE, corpus_dir / "east ward.blt")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    out_dir = tmp_path / "out"
    argv = ["batch", str(corpus_dir), "--config", str(cfg), "--out", str(out_dir)]
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "0 errored" in err
    assert (out_dir / "done.txt").read_text() == "east ward\n"
    records = (out_dir / "records.jsonl").read_text()
    assert '"election_id": "east ward"' in records
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 0
    assert "audited 0 elections (1 skipped as done)" in err
    assert (out_dir / "records.jsonl").read_text() == records


def test_batch_without_resume_replaces_earlier_ledgers(tmp_path, corpus, capsys):
    # a dead heat for one seat, so tied.txt is not empty
    (corpus / "tie.blt").write_text(
        '2 1\n5 1 0\n5 2 0\n0\n"a"\n"b"\n"dead heat"\n'
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for out_dir in (reused, fresh):
        code, _, _ = run(
            capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 0
    # a stale line in every output of the earlier run, then a run over it
    for name in BATCH_OUTPUTS:
        with (reused / name).open("a") as f:
            f.write("stale\n")
    code, _, err = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(reused)
    )
    assert code == 0
    assert "(0 skipped as done)" in err
    for name in BATCH_OUTPUTS:
        assert (reused / name).read_text() == (fresh / name).read_text(), name


def test_batch_drops_ledger_lines_that_are_not_records(tmp_path, corpus, capsys):
    # JSON lines that are not whole records, among them two naming a done
    # election: a fresh run empties the ledger and a resumed one keeps only
    # the records of elections that are done
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    clean, reused = tmp_path / "clean", tmp_path / "reused"
    for out_dir in (clean, reused):
        code, _, _ = run(
            capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 0
    first = json.loads((clean / "records.jsonl").read_text().splitlines()[0])
    assert first["election_id"] == "ea"
    del first["party_swap"]
    argv = ["batch", str(corpus), "--config", str(cfg), "--out", str(reused)]
    for resume in ([], ["--resume"]):
        with (reused / "records.jsonl").open("a") as f:
            f.write('{"x": 1}\n[1]\n"ea"\n{"election_id": ["ea"]}\n')
            f.write('{"election_id": "ea"}\n' + json.dumps(first) + "\n")
        code, _, _ = run(capsys, *argv, *resume)
        assert code == 0
        for name in BATCH_OUTPUTS:
            assert (reused / name).read_text() == (clean / name).read_text(), name


def test_batch_audits_the_same_file_of_a_shared_stem_in_any_listing_order(
    tmp_path, capsys, monkeypatch
):
    # ea.blt and ea.csv share an election id; the file whose name sorts
    # first is audited and the other is named a duplicate, whichever the
    # directory lists first
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(EAST_AYRSHIRE, corpus_dir / "ea.blt")
    (corpus_dir / "ea.csv").write_text(
        "seats,1\ncandidate,Ann\ncandidate,Bob\n3,Ann,Bob\n2,Bob\n"
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    listed = Path.iterdir

    def listing(path, reverse):
        return iter(sorted(listed(path), key=lambda p: p.suffix, reverse=reverse))

    outputs = []
    for reverse in (False, True):
        monkeypatch.setattr(Path, "iterdir", lambda path: listing(path, reverse))
        out_dir = tmp_path / f"out{reverse}"
        code, _, _ = run(capsys, "batch", str(corpus_dir), "--config", str(cfg),
                         "--out", str(out_dir))
        assert code == 0
        outputs.append([(out_dir / name).read_text() for name in BATCH_OUTPUTS])
    assert outputs[0] == outputs[1]
    records, _, done, errors, _, _ = outputs[0]
    assert len(records.splitlines()) == 7 and done == "ea\n"
    assert errors == f"{corpus_dir / 'ea.csv'}: duplicate election id 'ea'\n"


def test_batch_spot_check_failure_exits_nonzero(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    out_dir = tmp_path / "out"
    argv = ["batch", str(corpus), "--config", str(cfg), "--out", str(out_dir)]
    assert run(capsys, *argv)[0] == 0
    # the first record, the one spot-checked first, now claims the removal
    # left the committee as it was; a resumed run re-verifies it
    records = out_dir / "records.jsonl"
    first, *rest = records.read_text().splitlines(keepends=True)
    doc = json.loads(first)
    assert doc["winners_after"] != doc["winners_before"]
    doc["winners_after"] = doc["winners_before"]
    records.write_text(json.dumps(doc) + "\n" + "".join(rest))
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 1
    assert f"spot-check FAILED: {doc}\n" in err
    for name in ("records.jsonl", "rows.csv", "report.csv"):
        assert (out_dir / name).read_text()


def test_batch_record_that_cannot_be_rebuilt_fails_its_spot_check(tmp_path, capsys):
    # a resumed run re-verifies the records of the earlier run against the
    # file as it is now, which no longer holds the ballots a record removed
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    lines = EAST_AYRSHIRE.read_text().splitlines(keepends=True)
    (corpus_dir / "ea.blt").write_text("".join(lines))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("methods=scottish\ncriteria=ilvb\n")
    out_dir = tmp_path / "out"
    argv = ["batch", str(corpus_dir), "--config", str(cfg), "--out", str(out_dir)]
    assert run(capsys, *argv)[0] == 0
    assert lines[1] == "56 1 0\n"  # Holden's bullets, removed by the first record
    (corpus_dir / "ea.blt").write_text("".join(lines[:1] + lines[2:]))
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 1
    failed, summary = err.splitlines()
    assert failed.startswith("spot-check FAILED: {'election_id': 'ea', ")
    assert failed.endswith(": InputError: profile has no ballot type with ranking (0,)")
    assert summary.startswith("audited 0 elections (1 skipped as done); 0 errored")
    assert summary.endswith("spot-checked 1, 1 failures")


@pytest.mark.parametrize("edit, why", [
    (lambda entry: [{**entry, "count": -1}], "negative count -1 for ranking (0,)"),
    (lambda entry: [entry, entry], "ranking (0,) is listed twice"),
], ids=["negative-count", "repeated-ranking"])
def test_batch_record_with_a_malformed_removal_fails_its_spot_check(
    tmp_path, capsys, edit, why
):
    # the first record's removal, edited to a count or a listing no
    # selection can hold, fails the resumed run's spot check with a summary
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(EAST_AYRSHIRE, corpus_dir / "ea.blt")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("methods=scottish\ncriteria=ilvb\n")
    out_dir = tmp_path / "out"
    argv = ["batch", str(corpus_dir), "--config", str(cfg), "--out", str(out_dir)]
    assert run(capsys, *argv)[0] == 0
    records = out_dir / "records.jsonl"
    first, *rest = records.read_text().splitlines(keepends=True)
    doc = json.loads(first)
    assert doc["removed"][0]["ranking"] == [0]
    doc["removed"] = edit(doc["removed"][0])
    records.write_text(json.dumps(doc) + "\n" + "".join(rest))
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 1
    failed, summary = err.splitlines()
    assert failed == f"spot-check FAILED: {doc}: InputError: {why}"
    assert summary.startswith("audited 0 elections (1 skipped as done); 0 errored")
    assert summary.endswith("spot-checked 1, 1 failures")


def ascii_locale_env():
    """The environment of an ASCII locale without UTF-8 mode, for main in a
    subprocess; skips the test where that locale still prefers UTF-8."""
    package_root = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
           )}
    preferred = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if codecs.lookup(preferred).name == "utf-8":
        pytest.skip("the C locale prefers UTF-8 on this host")
    return env


def run_main(env, *argv):
    """main run in a subprocess with env; its exit code, stdout and stderr."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from blocaudit.cli import main; "
         "sys.exit(main())", *argv],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("command", ["tabulate", "psc"])
def test_stdout_escapes_what_the_locale_cannot_encode(tmp_path, command):
    # an ASCII locale without UTF-8 mode: a candidate's non-ASCII name is
    # printed as a backslash escape rather than ending the run in a traceback
    env = ascii_locale_env()
    ward = tmp_path / "ward.blt"
    ward.write_bytes(
        '2 1\n3 1 2 0\n2 2 0\n0\n"Ren\u00e9"\n"Ross"\n"Accented ward"\n'.encode()
    )
    done = run_main(env, command, str(ward))
    assert done.returncode == 0, done.stderr
    assert "Ren\\xe9" in done.stdout
    assert done.stderr == ""


def test_batch_writes_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale without UTF-8 mode: errors.txt must still hold the
    # non-ASCII name that a file's parse error quotes
    env = ascii_locale_env()
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(EAST_AYRSHIRE, corpus_dir / "ea.blt")
    (corpus_dir / "bad.blt").write_bytes(
        '2 1\n3 1 2 0\n2 2 0\n0\nRen\u00e9\n"Ross"\n"Bad ward"\n'.encode()
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("methods=scottish\n")
    out_dir = tmp_path / "out"
    done = run_main(
        env, "batch", str(corpus_dir), "--config", str(cfg), "--out", str(out_dir)
    )
    assert done.returncode == 0, done.stderr
    assert (out_dir / "errors.txt").read_bytes() == (
        "bad: ParseError: line 5: expected a quoted string, got 'Ren\u00e9'\n"
    ).encode()
    assert (out_dir / "done.txt").read_bytes() == b"ea\n"
    assert (out_dir / "rows.csv").exists() and (out_dir / "report.csv").exists()


def test_batch_rejects_bad_config(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("sigma_l=ten\n")
    code, _, err = run(capsys, "batch", str(corpus), "--config", str(cfg))
    assert code == 2
    assert "sigma_l" in err
    for line in ("unknown_key=1\n", "q_mode=droop\n"):
        cfg.write_text(line)
        code, _, err = run(capsys, "batch", str(corpus), "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err
    cfg.write_text("methods=positional\n")
    code, _, err = run(capsys, "batch", str(corpus), "--config", str(cfg))
    assert code == 2
    assert "unknown method" in err
    cfg.write_text("methods=scottish,meek,scottish\n")
    code, _, err = run(capsys, "batch", str(corpus), "--config", str(cfg))
    assert code == 2
    assert "duplicate method 'scottish'" in err
    # a repeated key is refused, not overridden by its last line
    # before the outputs of an earlier run are unlinked
    cfg.write_text("methods=scottish\nsigma_l=2\nmethods=meek\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "records.jsonl").write_text("earlier\n")
    code, _, err = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2
    assert f"{cfg}:3: duplicate key 'methods'" in err
    assert (out_dir / "records.jsonl").read_text() == "earlier\n"
    # settings are checked before any election runs or any output is written
    cfg.write_text("sigma_l=0\n")
    code, _, err = run(capsys, "batch", str(corpus), "--config", str(cfg))
    assert code == 2
    assert "sigma" in err
    assert not (corpus / "audit_out" / "records.jsonl").exists()


def test_batch_refuses_config_that_is_not_utf8(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"# caf\xe9\nmethods=scottish\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "records.jsonl").write_text("earlier\n")
    code, _, err = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2
    assert err == f"error: cannot decode {cfg} as UTF-8: byte 0xe9 at offset 5\n"
    assert [p.name for p in out_dir.iterdir()] == ["records.jsonl"]
    assert (out_dir / "records.jsonl").read_text() == "earlier\n"


@pytest.mark.parametrize(
    "flag, config, env",
    [
        (None, None, "x"),
        (None, None, "0"),
        ("-3", None, None),
        ("0", None, None),
        ("two", None, None),
        (None, "workers=0\n", None),
        (None, "workers=-1\n", "2"),
    ],
)
def test_batch_rejects_bad_worker_counts(
    tmp_path, corpus, capsys, monkeypatch, flag, config, env
):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys, "batch", str(corpus), "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    argv = ["batch", str(corpus), "--out", str(out_dir)]
    if flag is not None:
        argv += ["--workers", flag]
    if config is not None:
        cfg.write_text(CFG + config)
        argv += ["--config", str(cfg)]
    if env is None:
        monkeypatch.delenv("RCV_AUDIT_WORKERS", raising=False)
    else:
        monkeypatch.setenv("RCV_AUDIT_WORKERS", env)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "workers" in err
    # checked before any output of the previous run is unlinked
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


# ------------------------------------------------ one rule refusing


def write_wide(path, ballots):
    """A one-seat election with 21 candidates, too many for cc-om."""
    lines = ["21 1", *ballots, "0", *(f'"c{i}"' for i in range(21)), f'"{path.stem}"']
    path.write_text("\n".join(lines) + "\n")


# an ILVB flip under scottish: removing the two c1 bullets elects c2, not c0
FLIP = ["7 1 2 3 0", "9 1 3 2 0", "2 2 0", "12 2 3 1 0", "13 3 1 2 0"]
ENUM_ERROR = "EnumerationGuardError: committee enumeration needs m <= 20"


def test_audit_writes_the_rules_that_ran(tmp_path, capsys):
    big = tmp_path / "big21.blt"
    write_wide(big, FLIP)
    code, out, err = run(capsys, "audit", str(big), "-m", "scottish,cc-om")
    assert code == 3
    docs = [json.loads(line) for line in out.splitlines()]
    assert [(doc["method"], doc["criterion"]) for doc in docs] == [
        ("scottish", "ILVB")
    ]
    assert f"error: big21 cc-om: {ENUM_ERROR}" in err


def test_batch_isolates_a_refusing_rule(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_wide(corpus_dir / "big21.blt", FLIP)
    write_wide(corpus_dir / "heat21.blt", ["5 1 0", "5 2 0"])  # a dead heat
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("methods=scottish,cc-om\n")
    out_dir = tmp_path / "out"
    argv = ["batch", str(corpus_dir), "--config", str(cfg), "--out", str(out_dir)]
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "2 errored" in err
    records = (out_dir / "records.jsonl").read_text()
    assert [json.loads(line)["election_id"] for line in records.splitlines()] == [
        "big21"
    ]
    assert (out_dir / "tied.txt").read_text() == "heat21 scottish\n"
    errors = (out_dir / "errors.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in errors] == ["big21 cc-om", "heat21 cc-om"]
    assert all(ENUM_ERROR in line for line in errors)
    assert (out_dir / "done.txt").read_text() == ""
    # neither election is done, so a resume retries both and writes no duplicates
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 0
    assert "audited 2 elections (0 skipped as done)" in err
    assert (out_dir / "records.jsonl").read_text() == records
    assert (out_dir / "tied.txt").read_text() == "heat21 scottish\n"


# --------------------------------------------------------------- exit codes


def test_computation_refusal_exits_three(tmp_path, capsys):
    names = [f"c{i}" for i in range(21)]
    lines = ["21 2"]
    lines += [f"1 {i} 0" for i in range(1, 22)]
    lines.append("0")
    lines += [f'"{name}","IND"' for name in names]
    lines.append('"wide"')
    wide = tmp_path / "wide.blt"
    wide.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "tabulate", str(wide), "-m", "cc-om")
    assert code == 3
    assert "error:" in err
