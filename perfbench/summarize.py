"""Summarise benchmark result files: per workload and metric, the median over
runs, the quartiles and the spread (p75 - p25) / median, as the acceptance
rule for a performance change reads them.

    python3 perfbench/summarize.py perfbench/out/results/*-trace0.json
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths: list[str]) -> dict:
    values: dict[str, dict[str, list[float]]] = {}
    seeds: dict[str, list[int]] = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        workload = result["workload"]
        seeds.setdefault(workload, []).append(result["seed"])
        for name, metric in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    out = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {"seeds": sorted(seeds[workload])}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            p25, _, p75 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            out[workload][name] = {
                "median": median, "p25": p25, "p75": p75, "n": len(vals),
                "spread": (p75 - p25) / median if median else 0.0,
            }
    return out


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
