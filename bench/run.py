"""Run the benchmark: each workload in a fresh process with one BLAS thread.

From the repository root::

    python3 bench/run.py --seed 0 --out run.json      # every workload, end to end
    python3 bench/run.py --seed 0 --trace --out ledger.json
    python3 bench/run.py --workload fit_detect --seed 3 --trace 0

Prints every metric by name with its unit and sample quartiles, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--workload`` the metrics are that workload's end-to-end metrics
(``--trace 0``) or per-layer metrics (``--trace 1``).  Without it every
workload runs, metric names are prefixed ``<workload>/``, and ``--trace``
runs each workload untraced and then traced and adds
``obs.trace_overhead``, the traced median latency over the untraced one.
Each workload sets up three times, warms up, then runs whole rounds of
fixed work for ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``).
Exits 1 when an output check failed or a workload crashed, 2 on a bad
argument or when the checkout has no ``src/repro`` to measure.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 170
MAX_SECONDS = 60  # leaves set-up and checks their share of the child timeout
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(workload: str, seed: int, trace: int, seconds: float, quick: bool) -> dict:
    """Run one workload in a fresh interpreter and return its result."""
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--seconds", str(seconds),
    ] + (["--quick"] if quick else [])
    # Its own session, so a timeout also stops the job workers it forks.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if child.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload} exited with code {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def describe(name: str, metric: dict, unit: str) -> str:
    line = f"  {name:<30} {metric['value']:>14.6g} {unit:<9}"
    if "n" in metric:
        line += f" q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n={metric['n']}"
    return line


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="draws every input")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help=f"timed phase per workload, at most {MAX_SECONDS:g} (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer ledger (bare --trace means 1)",
    )
    parser.add_argument("--quick", action="store_true", help="toy sizes, 1.5 s timed: a smoke run")
    parser.add_argument("--out", type=Path, help="write every result to this JSON file")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["obs.trace_overhead"] = "ratio"
    if args.workload:
        plan = [(args.workload, args.trace)]
    else:
        plan = [(name, trace) for name in names for trace in ((0, 1) if args.trace else (0,))]

    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "environment": {
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": git_commit(),
        },
        "workloads": {},
        "traced": {},
    }
    final: dict[str, dict] = {}
    attempted = failed = 0
    for name, trace in plan:
        try:
            result = run_workload(name, args.seed, trace, args.seconds, args.quick)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        report["environment"].update(result.pop("environment"))
        report["traced" if trace else "workloads"][name] = result
        attempted += result["attempted"]
        failed += result["failed"]
        metrics = dict(result["per_layer"] if trace else result["end_to_end"])
        untraced = report["workloads"].get(name)
        if trace and untraced and not args.workload:
            metrics["obs.trace_overhead"] = {
                "value": result["end_to_end"]["latency_ms"]["value"]
                / untraced["end_to_end"]["latency_ms"]["value"]
            }
        mode = "traced, per layer" if trace else "end to end"
        print(f"{name} ({mode}; {result['failed']} of {result['attempted']} checks failed)")
        for failure in result["failures"]:
            print(f"  FAILED: {failure}")
        for metric_name, metric in metrics.items():
            print(describe(metric_name, metric, units[metric_name]))
            key = metric_name if args.workload else f"{name}/{metric_name}"
            final[key] = {"value": metric["value"], "unit": units[metric_name]}

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
