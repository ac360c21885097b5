"""Compare two sets of ``bench/run.py --out`` files, metric by metric.

    python3 bench/compare.py parent.json change.json
    python3 bench/compare.py parent1.json parent2.json -- change1.json change2.json

Without ``--`` the files split in half: the first half is the base (A),
the second the candidate (B).  For every workload and end-to-end metric
in both, prints each side's median and quartiles, the change as a share
of A's median, the bound from ``BENCHMARK.json`` and a verdict:

- ``unresolved`` when either side's run-to-run spread is wider than the
  bound, unless every B run reads better than every A run;
- otherwise ``worse``/``better`` when B's median is worse/better than
  A's by more than the bound, else ``unchanged``.

The run-to-run spread is the quartile distance of a side's run values
over their median.  A side of one run estimates it from that run's own
``n`` samples (rounds, or open-loop stretches) with quartiles q1, q3:
the median of ``n`` samples varies between runs with a quartile
distance of about sqrt(pi/2) * (q3 - q1) / sqrt(n).  Unlike the raw
sample quartiles, this shrinks as a run gets longer, so a longer run is
the remedy for an unresolved metric.  It assumes rounds vary
independently, so it cannot see drift slower than a run; several runs
per side can.  A metric with one sample per run (``peak_rss_mb``) has
no spread within a run and needs several runs per side to be found
unresolved.  Exits 1 if any metric is ``worse``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def side(runs: list[dict], workload: str, metric: str) -> dict:
    """Median, quartiles and relative run-to-run spread of one side."""
    samples = [run["workloads"][workload]["end_to_end"][metric] for run in runs]
    values = [s["value"] for s in samples]
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        distance = q3 - q1
    else:
        q1, q3 = samples[0]["q1"], samples[0]["q3"]
        distance = math.sqrt(math.pi / 2) * (q3 - q1) / math.sqrt(samples[0]["n"])
    spread = distance / abs(median) if median else 0.0
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """The change as a share of A (positive is worse) and its verdict."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    if any(s["spread"] > bound for s in (a, b)):
        if all(sign * (vb - va) < 0 for va in a["values"] for vb in b["values"]):
            return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "unchanged"


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        paths_a, paths_b = argv[:split], argv[split + 1 :]
    elif len(argv) % 2 == 0:
        paths_a, paths_b = argv[: len(argv) // 2], argv[len(argv) // 2 :]
    else:
        paths_a = paths_b = []
    if not paths_a or not paths_b:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    runs_a = [json.loads(Path(p).read_text()) for p in paths_a]
    runs_b = [json.loads(Path(p).read_text()) for p in paths_b]
    workloads = [
        w["name"]
        for w in spec["workloads"]
        if all(w["name"] in run["workloads"] for run in runs_a + runs_b)
    ]
    print(f"{'workload':<17} {'metric':<13} {'A median [q1, q3] spread':>38} "
          f"{'B median [q1, q3] spread':>38} {'worse by':>8} {'bound':>6}  verdict")
    worse = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = side(runs_a, workload, metric["name"])
            b = side(runs_b, workload, metric["name"])
            change, word = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            cells = [
                f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['spread']:.1%}"
                for s in (a, b)
            ]
            print(f"{workload:<17} {metric['name']:<13} {cells[0]:>38} {cells[1]:>38} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
