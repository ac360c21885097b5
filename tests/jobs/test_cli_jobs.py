"""CLI surface: repro submit / jobs / job-result / job-cancel, and
compare --workers fanning the archive sweep out over fork workers."""

from __future__ import annotations

import numpy as np

from repro.cli import main


def test_submit_jobs_result_flow(tmp_path, capsys):
    store = tmp_path / "store"
    code = main([
        "submit", "--dataset", "0", "--store", str(store),
        "--detector", "spectral-residual", "--chunk-windows", "64",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "SUCCEEDED" in out
    job_id = next(
        word for word in out.split() if word.startswith("job-")
    ).rstrip(":")

    assert main(["jobs", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert job_id in out and "SUCCEEDED" in out

    # resubmitting the identical payload dedupes and replays
    assert main([
        "submit", "--dataset", "0", "--store", str(store),
        "--detector", "spectral-residual", "--chunk-windows", "64",
    ]) == 0
    assert len([
        line for line in capsys.readouterr().out.splitlines()
        if "SUCCEEDED" in line
    ]) >= 1

    result_path = tmp_path / "scores.npy"
    assert main([
        "job-result", job_id, "--store", str(store), "--out", str(result_path),
    ]) == 0
    scores = np.load(result_path)
    assert scores.ndim == 1 and np.isfinite(scores).all()

    assert main(["job-cancel", job_id, "--store", str(store)]) == 0
    assert "already terminal" in capsys.readouterr().out


def test_submit_unknown_detector_fails_cleanly(tmp_path, capsys):
    code = main([
        "submit", "--dataset", "0", "--store", str(tmp_path / "s"),
        "--detector", "nope",
    ])
    assert code == 2
    assert "unknown job detector" in capsys.readouterr().err


def test_job_result_missing_job(tmp_path, capsys):
    assert main(["job-result", "job-na", "--store", str(tmp_path / "s")]) == 2
    assert "no job" in capsys.readouterr().err


def test_jobs_empty_store(tmp_path, capsys):
    assert main(["jobs", "--store", str(tmp_path / "s")]) == 0
    assert "no jobs" in capsys.readouterr().out


def test_compare_workers_routes_through_fabric(capsys):
    code = main([
        "compare", "--size", "2", "--detectors", "random",
        "--mode", "scores", "--workers", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Leaderboard" in out and "random" in out
