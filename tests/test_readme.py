import re
import shlex
from pathlib import Path

from blocaudit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_library_example_runs(monkeypatch, capsys):
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example names its fixture from the repo root
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[1, 2, 4] 833"
    assert len(lines) > 1
    assert all("'election_id': 'ward5'" in line for line in lines[1:])


def run_example(command, capsys):
    """Run the README's `$ blocaudit COMMAND ...` example in process.

    Returns the exit code, the lines shown under the command and the lines
    the command wrote to stdout and stderr.
    """
    block = re.search(
        rf"```\n\$ blocaudit {command} (.*?)\n(.*?)```", README, re.S
    )
    code = main([command, *shlex.split(block.group(1))])
    out, err = capsys.readouterr()
    return code, block.group(2).splitlines(), out.splitlines(), err.splitlines()


def around_ellipsis(shown):
    """The shown lines before the line that reads `...`, and those after it."""
    cut = shown.index("...")
    return shown[:cut], shown[cut + 1:]


def assert_shown(shown, out):
    """out starts with the shown lines before `...` and ends with those after."""
    head, tail = around_ellipsis(shown)
    assert out[: len(head)] == head
    assert out[len(out) - len(tail):] == tail


def test_readme_tabulate_example_matches(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, shown, out, _ = run_example("tabulate", capsys)
    assert code == 0
    assert_shown(shown, out)


def test_readme_audit_example_matches(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, shown, out, err = run_example("audit", capsys)
    assert code == 0
    record, summary = around_ellipsis(shown)
    assert out[0] == "".join(record)
    assert err == summary


def test_readme_psc_example_matches(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, shown, out, _ = run_example("psc", capsys)
    assert code == 0
    assert_shown(shown, out)


def test_readme_gen_example_matches(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, shown, out, _ = run_example("gen", capsys)
    assert code == 0
    assert out == shown == ["wrote case.blt and case.manifest.json"]
