"""SweepCheckpoint journal loading must survive damage, loudly.

A process killed mid-``_append`` leaves a truncated final JSONL line;
editors and stray writers can leave non-object or wrong-schema lines.
``load`` skips every such line with a warning naming the file and line
number, so a damaged journal degrades to re-running the affected units
instead of aborting the resume.  ``clear_failures`` rewrites the
journal atomically, so an interrupted rewrite keeps the previous one.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.eval import DatasetScores, SweepCheckpoint, persistence
from repro.runtime import FailureReport


def make_checkpoint(tmp_path) -> SweepCheckpoint:
    checkpoint = SweepCheckpoint(tmp_path / "sweep.jsonl")
    checkpoint.append_result(
        DatasetScores("001_sine_noise", 0, {"roc_auc": 0.8})
    )
    checkpoint.append_failure(
        FailureReport(
            dataset="002_ecg_noise",
            seed=0,
            stage="fit",
            error_type="RuntimeError",
            message="boom",
            attempts=2,
            detector="demo",
        )
    )
    return checkpoint


def test_truncated_final_line_skipped_with_warning(tmp_path):
    checkpoint = make_checkpoint(tmp_path)
    intact = checkpoint.path.read_text()
    full_line = json.dumps(
        {"kind": "result", "dataset": "003_am_point", "seed": 0,
         "metrics": {"roc_auc": 0.5}, "warnings": [], "attempts": 1}
    )
    checkpoint.path.write_text(intact + full_line[: len(full_line) // 2])

    with pytest.warns(RuntimeWarning, match=r"sweep\.jsonl:3.*torn write"):
        results, failures = checkpoint.load()
    # the intact prefix is fully recovered
    assert ("001_sine_noise", 0) in results
    assert ("002_ecg_noise", 0) in failures
    # the torn unit is simply absent, so it will re-run
    assert ("003_am_point", 0) not in results


def test_non_object_line_skipped_with_warning(tmp_path):
    checkpoint = make_checkpoint(tmp_path)
    with open(checkpoint.path, "a", encoding="utf-8") as handle:
        handle.write('"just a string"\n')
    with pytest.warns(RuntimeWarning, match="expected an object, got str"):
        results, failures = checkpoint.load()
    assert len(results) == 1 and len(failures) == 1


def test_wrong_schema_line_skipped_with_warning(tmp_path):
    checkpoint = make_checkpoint(tmp_path)
    with open(checkpoint.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"kind": "result", "unexpected": True}) + "\n")
        handle.write(json.dumps({"kind": "mystery"}) + "\n")
    with pytest.warns(RuntimeWarning) as caught:
        results, _ = checkpoint.load()
    messages = [str(w.message) for w in caught]
    assert any("TypeError" in m for m in messages)
    assert any("unknown kind 'mystery'" in m for m in messages)
    assert len(results) == 1


def test_clean_journal_loads_without_warnings(tmp_path):
    checkpoint = make_checkpoint(tmp_path)
    import warnings as warnings_module

    with warnings_module.catch_warnings():
        warnings_module.simplefilter("error")
        results, failures = checkpoint.load()
    assert len(results) == 1 and len(failures) == 1


@pytest.mark.parametrize("fault_point", ["serialize", "fsync"])
def test_clear_failures_interrupted_keeps_previous_journal(
    tmp_path, monkeypatch, fault_point
):
    checkpoint = make_checkpoint(tmp_path)
    checkpoint.append_result(DatasetScores("003_am_point", 0, {"roc_auc": 0.5}))
    intact = checkpoint.path.read_bytes()

    def crash(*args, **kwargs):
        raise OSError("killed mid-rewrite")

    if fault_point == "serialize":
        # Let the first surviving result serialize, then fail on the second.
        real_asdict = persistence.asdict
        calls = []

        def asdict_then_crash(obj):
            calls.append(obj)
            return real_asdict(obj) if len(calls) < 2 else crash()

        monkeypatch.setattr(persistence, "asdict", asdict_then_crash)
    else:
        monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="killed mid-rewrite"):
        checkpoint.clear_failures()
    assert checkpoint.path.read_bytes() == intact
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.jsonl"]
