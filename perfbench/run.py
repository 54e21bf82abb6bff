"""blocaudit benchmark: audit throughput end to end, per-layer spans when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wards --seed 1 --seconds 20 --trace 0

Workloads (one client, closed loop, elections audited one after another
through the public CLI entry point `blocaudit.cli.main`, in process):

- wards: `audit` with all five rules, all three criteria and --party-swaps on
  the two real ward fixtures, then `psc --audit scottish` on each. Few ballot
  types; Meek dominates.
- synth: `audit --method scottish,ear,cc-om,cc-pm` with all three criteria on
  a seeded Plackett-Luce corpus. Many ballot types; no Meek.
- batch: `batch` at 1 and at 2 workers over every worst-case family at
  k = 2..5 plus a few small seeded wards. Many small elections; the only
  workload that writes report files or runs worker processes.

Passes over the workload repeat until --seconds have gone (at least two), and
each end-to-end metric is the median over passes:

- elections_per_s: elections audited per second spent inside CLI commands;
  on batch, at 1 worker.
- peak_rss_mb: peak resident memory of this process and of batch's workers.
- setup_s: imports plus the median of five repeated set-ups (input
  generation, writing and re-reading, reference loading, one warm-up
  tabulation per rule).

After the timed passes an untimed gate checks every output (see gate.py);
batch's 2-worker call runs there once and must write the same bytes. With
--trace 1 the first half of the time runs untraced and the second half
traced, and the per-layer numbers come from the traced passes (spans.py),
except audit_max_s, the slowest single election's audit in an untraced pass
(inside the 1-worker batch call an election is timed from the moment batch
loads its file to the next load).
The last line of standard output is one JSON object; the full results, with
quartiles, sample counts, exact counts, ward shapes and host calibration,
go to perfbench/out/results/.

`--capture` stores this run's record and round-log digests in
perfbench/reference.json instead of checking them; use it only on a commit
whose exact outputs are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
MIN_PASSES = 2  # a batch pass can outlast a whole run; take at least two
ALL_RULES = ("scottish", "meek", "ear", "cc-om", "cc-pm")
SYNTH_RULES = ("scottish", "ear", "cc-om", "cc-pm")
CRITERIA_FLAG = "ilvb,iwvb,iwvb-star"

END_TO_END_UNITS = {
    "elections_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for rule in ALL_RULES:
        units[f"methods.{rule}.calls"] = "count"
        units[f"methods.{rule}.self_s"] = "s"
        units[f"methods.{rule}.p50_ms"] = "ms"
    units["methods.meek.rounds"] = "count"
    units["methods.cc.committees"] = "count"
    for search in ("ilvb", "iwvb", "iwvb_star", "party_swaps"):
        units[f"criteria.{search}.search_s"] = "s"
        units[f"criteria.{search}.probes"] = "count"
    units.update({
        "criteria.probes_distinct": "count",
        "criteria.probe_reuse": "ratio",
        "criteria.hit_ratio": "ratio",
        "criteria.self_s": "s",
        "criteria.records": "count",
        "profiles.remove_s": "s",
        "profiles.remove_calls": "count",
        "profiles.types_rebuilt": "count",
        "profiles.pool_s": "s",
        "profiles.pool_calls": "count",
        "formats.load_s": "s",
        "formats.load_calls": "count",
        "cli.self_s": "s",
        "cli.spot_checks": "count",
        "cli.output_bytes": "bytes",
        "cli.scaling_eff": "ratio",
        "elections_per_s.w2": "1/s",
        "psc.s": "s",
        "psc.calls": "count",
        "worstcase.generate_s": "s",
        "trace.overhead": "ratio",
        # The slowest election depends on one ward's seed and on host speed
        # at that moment; it varied too much between runs to carry a bound.
        "audit_max_s": "s",
    })
    return units


def calibration_s() -> float:
    """A fixed pure-Python loop, timed to record host speed next to the metrics."""
    start = perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - start


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "n": len(values)}


class Item(NamedTuple):
    """One election of a workload: its file, the parsed election and, for a
    worst-case construction, the generated case it must reproduce."""

    name: str
    path: Path
    election: object
    case: object = None


class Pass:
    def __init__(self):
        self.elections = 0
        self.wall = 0.0  # seconds inside CLI commands
        # (label, is a command a user waits on, time); label None stops timing
        self.marks: list[tuple[str | None, bool, float]] = []
        self.outputs: dict[str, bytes] = {}  # records by election, and reports
        self.failures: dict[str, str] = {}
        self.output_bytes = 0
        self.spot_checks = 0
        self.attempts: list[str] = []

    def mark(self, label: str | None, wait: bool = False):
        """Start a timed unit named `label`; None ends the last one."""
        self.marks.append((label, wait, perf_counter()))

    def units(self) -> list[tuple[str, bool, float]]:
        return [(label, wait, t1 - t0)
                for (label, wait, t0), (_, _, t1) in zip(self.marks, self.marks[1:])
                if label is not None]


def call(cli, argv, tracer=None):
    """Run one CLI command in process; returns (exit code or error, start, end, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            if tracer is not None:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception:  # a crash is one failed election, not a dead run
            code = traceback.format_exc(limit=3)
        end = perf_counter()
    return code, start, end, err.getvalue()


class Workload:
    rules: tuple[str, ...] = ALL_RULES

    def __init__(self, name, seed, modules):
        self.name, self.seed, self.m = name, seed, modules
        self.generate_s = 0.0

    def build(self, dest: Path) -> list[Item]:
        raise NotImplementedError

    def run_pass(self, items, out_dir: Path, tracer=None) -> Pass:
        """One pass over the workload, traced when `tracer` is given."""
        raise NotImplementedError

    def finish(self, items, out_dir: Path) -> Pass | None:
        """An untimed call after the passes, checked like a pass."""
        return None


class AuditWorkload(Workload):
    """One `audit` call per election (wards and synth)."""

    audit_flags: tuple[str, ...] = ()
    psc = False

    def _command(self, argv, p, unit, wait, tracer):
        p.mark(unit, wait)
        code, start, end, _ = call(self.m["cli"], argv, tracer)
        p.mark(None)
        p.wall += end - start
        return code

    def run_pass(self, items, out_dir, tracer=None):
        p = Pass()
        for item in items:
            target = out_dir / f"{item.name}.jsonl"
            if tracer is not None:
                tracer.election = item.name
            code = self._command([
                "audit", str(item.path), "--method", ",".join(self.rules),
                "--criteria", CRITERIA_FLAG, *self.audit_flags, "--out", str(target),
            ], p, item.name, True, tracer)
            if code != 0:
                p.failures[item.name] = f"audit returned {code}"
            if self.psc:
                code = self._command(
                    ["psc", str(item.path), "--audit", "scottish"],
                    p, f"{item.name} psc", False, tracer)
                if code != 0:
                    p.failures[item.name] = f"psc returned {code}"
            p.elections += 1
            p.attempts.append(item.name)
            p.outputs[item.name] = target.read_bytes() if target.exists() else b""
            p.output_bytes += len(p.outputs[item.name])
        return p


class Wards(AuditWorkload):
    audit_flags = ("--party-swaps",)
    psc = True

    def build(self, dest):
        load = self.m["formats"].load_election
        items = []
        for source in sorted((HERE / "fixtures").glob("*.blt")):
            path = dest / source.name
            shutil.copyfile(source, path)
            items.append(Item(source.stem, path, load(path)))
        return items


class Synth(AuditWorkload):
    rules = SYNTH_RULES

    def build(self, dest):
        corpus = self.m["corpus"]
        return [
            Item(name, corpus.write_blt(dest, name, election), election)
            for name, election in corpus.synthetic_wards(
                self.seed, corpus.SYNTH_SHAPES, "pl")
        ]


class Batch(Workload):
    FILES = ("records.jsonl", "rows.csv", "report.csv")
    SUMMARY = re.compile(r"spot-checked (\d+), (\d+) failures")

    def build(self, dest):
        corpus = self.m["corpus"]
        start = perf_counter()
        cases = corpus.worstcase_cases()
        self.generate_s = perf_counter() - start
        items = [
            Item(name, corpus.write_blt(dest, name, case.election),
                 case.election, case)
            for name, case in cases
        ]
        items += [
            Item(name, corpus.write_blt(dest, name, election), election)
            for name, election in corpus.synthetic_wards(
                self.seed, corpus.BATCH_SHAPES, "plb")
        ]
        return items

    def _batch(self, items, out_dir, workers, tracer=None, p=None) -> Pass:
        p = p or Pass()
        p.elections = len(items)
        target = out_dir / f"w{workers}"
        shutil.rmtree(target, ignore_errors=True)
        p.mark("batch")
        code, start, end, err = call(self.m["cli"], [
            "batch", str(items[0].path.parent), "--out", str(target),
            "--workers", str(workers),
        ], tracer)
        p.mark(None)
        p.wall = end - start
        summary = self.SUMMARY.search(err)
        errors = target / "errors.txt"
        problem = None
        if code != 0:
            problem = f"batch --workers {workers} returned {code}"
        elif summary is None or summary.group(2) != "0":
            problem = f"batch --workers {workers} spot checks: {err.strip()[-300:]}"
        elif errors.exists() and errors.read_text().strip():
            problem = f"batch --workers {workers} errors: {errors.read_text()[:300]}"
        for item in items:
            if problem:
                p.failures[item.name] = problem
            p.attempts.append(item.name)
        p.spot_checks = int(summary.group(1)) if summary else 0
        files = {}
        for name in self.FILES:
            path = target / name
            files[name] = path.read_bytes() if path.exists() else b""
        p.output_bytes = sum(len(data) for data in files.values())
        records = self.m["gate"].lines_by_election(files["records.jsonl"].decode())
        for item in items:
            p.outputs[item.name] = "".join(
                line + "\n" for line in records.get(item.name, [])).encode()
        p.outputs["reports"] = files["rows.csv"] + files["report.csv"]
        return p

    def run_pass(self, items, out_dir, tracer=None):
        if tracer is not None:
            return self._batch(items, out_dir, 1, tracer)
        # Split the batch call into one unit per election by marking when
        # batch loads each file: it audits the elections in id order, each
        # starting with a load, and the spot checks after them load again.
        p = Pass()
        cli = self.m["cli"]
        original = cli.load_election
        names = iter(sorted(item.name for item in items))

        def timed_load(path):
            name = next(names, None)
            p.mark(name or "spot checks", wait=name is not None)
            if name is not None and name != Path(path).stem:
                raise RuntimeError(f"batch loaded {path} where {name} was expected")
            return original(path)

        cli.load_election = timed_load
        try:
            return self._batch(items, out_dir, 1, None, p)
        finally:
            cli.load_election = original

    def finish(self, items, out_dir):
        # Workers are separate processes and are not traced, so the 2-worker
        # call runs once, untraced, and must write the same bytes.
        return self._batch(items, out_dir, 2)


WORKLOADS = {"wards": Wards, "synth": Synth, "batch": Batch}


def run_gate(workload, items, final: Pass, reference, capture) -> tuple[dict, dict]:
    """Untimed correctness checks; returns (failures by election, digests)."""
    gate, tabulate = workload.m["gate"], workload.m["methods"].tabulate
    published = reference.get("published", {})
    stored = reference.get("digests", {})
    failures: dict[str, str] = {}
    digests: dict[str, dict] = {}
    unchecked = 0
    for item in items:
        problems = []
        if item.name in published:
            mismatch = gate.published_mismatch(item.election, published[item.name])
            if mismatch:
                problems.append(f"published count: {mismatch}")
        if item.case is not None:
            mismatch = gate.worstcase_mismatch(item.case)
            if mismatch:
                problems.append(f"worst-case flip: {mismatch}")
        text = final.outputs.get(item.name, b"").decode()
        lines = text.splitlines()
        bad = sum(1 for line in lines if not gate.reverify(line, item.election))
        if bad:
            problems.append(f"{bad} of {len(lines)} records do not re-verify")
        digest = {
            "records": gate.sha(text),
            "rounds": {rule: gate.round_log_digest(tabulate(item.election, rule))
                       for rule in workload.rules},
        }
        key = f"{workload.name}/{item.name}"
        digests[key] = digest
        if not capture:
            if key not in stored:
                unchecked += 1
            elif stored[key] != digest:
                changed = [r for r in workload.rules
                           if stored[key]["rounds"].get(r) != digest["rounds"][r]]
                if stored[key]["records"] != digest["records"]:
                    changed.append("records")
                problems.append(f"digest changed: {', '.join(changed)}")
        if problems:
            failures[item.name] = "; ".join(problems)
    return failures, {"digests": digests, "unchecked": unchecked}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", action="store_true",
                        help="store digests in reference.json instead of checking")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "blocaudit" / "__init__.py").is_file():
        print(f"error: no blocaudit sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    calibration = [calibration_s()]
    start = perf_counter()
    sys.path.insert(0, str(src))
    import blocaudit
    import blocaudit.cli
    import blocaudit.formats
    import blocaudit.methods
    import blocaudit.rationals
    if Path(blocaudit.__file__).resolve().parent != (src / "blocaudit").resolve():
        print(f"error: imported blocaudit from {blocaudit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import corpus
    import gate
    import spans
    import_s = perf_counter() - start

    modules = {"cli": blocaudit.cli, "formats": blocaudit.formats,
               "methods": blocaudit.methods, "corpus": corpus, "gate": gate}
    workload = WORKLOADS[args.workload](args.workload, args.seed, modules)
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)

    # Set-up, repeated; every repeat must write byte-identical inputs.
    setup_times, generate_times, snapshots = [], [], []
    for i in range(SETUP_REPEATS):
        dest = work / f"inputs{i}"
        begin = perf_counter()
        dest.mkdir(parents=True)
        items = workload.build(dest)
        reference = json.loads(REFERENCE.read_text())
        for rule in workload.rules:
            blocaudit.methods.tabulate(items[0].election, rule)
        setup_times.append(perf_counter() - begin)
        generate_times.append(workload.generate_s)
        snapshots.append([item.path.read_bytes() for item in items])
    inputs_stable = all(s == snapshots[0] for s in snapshots)

    out_dir = work / "outputs"
    out_dir.mkdir()
    passes: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    begin = perf_counter()
    untraced_until = begin + (args.seconds / 2 if args.trace else args.seconds)
    min_passes = 1 if args.trace or args.capture else MIN_PASSES
    while len(passes) < min_passes or perf_counter() < untraced_until:
        passes.append(workload.run_pass(items, out_dir))
    if args.trace:
        while not traced or perf_counter() < begin + args.seconds:
            tracer = spans.Tracer()
            tracer.install()
            try:
                done = workload.run_pass(items, out_dir, tracer=tracer)
            finally:
                tracer.uninstall()
            traced.append((done, spans.summarize(tracer.spans)))
    final = workload.finish(items, out_dir)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    # Untimed gate: every pass must match the first, then the checks.
    all_passes = passes + [p for p, _ in traced] + ([final] if final else [])
    failures: dict[str, str] = {}
    for p in all_passes:
        failures.update(p.failures)
        for name, data in p.outputs.items():
            if data != passes[0].outputs.get(name):
                failures.setdefault(name, "output differs between passes")
    gate_start = perf_counter()
    gate_failures, digests = run_gate(
        workload, items, passes[-1], reference, args.capture)
    gate_s = perf_counter() - gate_start
    for name, problem in gate_failures.items():
        failures.setdefault(name, problem)
    if not inputs_stable:
        failures["inputs"] = "set-up repeats wrote different inputs"
    calibration.append(calibration_s())

    units = [p.units() for p in passes]
    stats = {name: quartiles(values) for name, values in {
        "setup_s": [import_s + t for t in setup_times],
        "elections_per_s": [
            p.elections / sum(seconds for _, _, seconds in u)
            for p, u in zip(passes, units)
        ],
        "audit_max_s": [max(s for _, wait, s in u if wait) for u in units],
    }.items()}
    stats["peak_rss_mb"] = {"median": rss_kb / 1024, "n": 1}
    audit_s = {
        label: statistics.median(s for u in units for lab, _, s in u if lab == label)
        for label, wait, _ in units[0] if wait
    }

    if args.trace:
        counts = [summary for _, summary in traced]
        metrics_units = per_layer_units()
        layer: dict[str, float] = {}
        for name in metrics_units:
            values = [summary.get(name, 0) for summary in counts]
            layer[name] = statistics.median(values)
        first = traced[0][0]
        layer["cli.spot_checks"] = first.spot_checks
        layer["cli.output_bytes"] = first.output_bytes
        layer["cli.scaling_eff"] = (
            statistics.median(p.wall for p in passes) / (2 * final.wall)
            if final else 0.0
        )
        layer["elections_per_s.w2"] = final.elections / final.wall if final else 0.0
        layer["worstcase.generate_s"] = statistics.median(generate_times)
        layer["audit_max_s"] = stats["audit_max_s"]["median"]
        layer["trace.overhead"] = (
            statistics.median(p.wall for p, _ in traced)
            / statistics.median(p.wall for p in passes)
        )
        exact = ("calls", "rounds", "committees", "probes", "probes_distinct",
                 "records")
        unstable = sorted(
            name for name in metrics_units
            if name.rsplit(".", 1)[-1] in exact
            and len({summary.get(name, 0) for summary in counts}) > 1
        )
        if unstable:
            failures["trace"] = f"exact counts changed between passes: {unstable}"
        metrics = {name: {"value": layer[name], "unit": metrics_units[name]}
                   for name in metrics_units}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    # An election's failure fails every audit of it; a failure that is not
    # one election's (inputs, reports, counts) fails them all.
    attempts = [name for p in all_passes for name in p.attempts]
    attempted = len(attempts)
    if all(name in attempts for name in failures):
        failed = sum(1 for name in attempts if name in failures)
    else:
        failed = attempted

    if args.capture and not failures:
        reference.setdefault("digests", {}).update(digests["digests"])
        reference["digests"] = dict(sorted(reference["digests"].items()))
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": "gmpy2" if blocaudit.rationals.HAVE_GMPY2 else "Fraction",
        "nproc": os.cpu_count(),
        "calibration_s": calibration,
        "passes": len(passes),
        "gate_s": gate_s,
        "traced_passes": len(traced),
        "stats": stats,
        "metrics": metrics,
        "wards": {
            item.name: {
                **corpus.shape(item.election),
                "audit_s": audit_s.get(item.name),
            }
            for item in items
        },
        "failed_ratio": failed / attempted,
        "failures": failures,
        "digests_unchecked": digests["unchecked"],
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
                 ).write_text(json.dumps(results, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for name, problem in sorted(failures.items()):
        print(f"FAILED {name}: {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
