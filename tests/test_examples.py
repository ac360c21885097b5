"""Tier-1 gate: the examples run clean and print their expected line.

``examples/sharded_serving.py`` checks a kill -9 run of the shard
fabric against one in-process engine, and ``examples/bulk_jobs.py``
checks a killed and resumed bulk job against an uninterrupted one; each
asserts its own result, so a zero exit status is the check.
``examples/streaming_monitor.py`` feeds a two-event stream point by
point through the streaming discord monitor and must raise one alert
burst per event.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, expect",
    [
        ("sharded_serving.py", "bit-identical to the in-process reference: True"),
        ("bulk_jobs.py", "resumed result bit-identical to uninterrupted run: True"),
        ("streaming_monitor.py", "2 alert bursts raised"),
    ],
    ids=["sharded_serving", "bulk_jobs", "streaming_monitor"],
)
def test_example_runs_clean(script, expect, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
