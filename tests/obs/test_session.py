"""Sessions, the no-op facade, tracing, export, and profile rendering."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.runtime.journal import JournalWarning


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test must start and end with observability off."""
    assert obs.active() is None
    yield
    obs.uninstall()


class TestFacadeDisabled:
    def test_all_calls_are_noops(self):
        obs.incr("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 2.0)
        obs.event("e", detail=1)
        with obs.span("s") as span:
            span.set(attr=1)
        assert obs.active() is None
        assert obs.export_jsonl("/nonexistent/never-written.jsonl") == 0

    def test_span_returns_shared_noop(self):
        assert obs.span("a") is obs.span("b")


class TestSessionLifecycle:
    def test_install_uninstall(self):
        session = obs.install()
        assert obs.active() is session
        assert obs.enabled()
        assert obs.uninstall() is session
        assert obs.active() is None

    def test_observed_restores_previous(self):
        outer = obs.install()
        with obs.observed() as inner:
            assert obs.active() is inner
            assert inner is not outer
        assert obs.active() is outer

    def test_facade_routes_to_active_session(self):
        with obs.observed() as session:
            obs.incr("calls", 3)
            obs.gauge("lr", 0.01)
            obs.observe("sizes", 5)
            obs.event("boom", stage="fit")
        assert session.metrics.counters["calls"].value == 3
        assert session.metrics.gauges["lr"].value == 0.01
        assert session.metrics.histograms["sizes"].count == 1
        assert session.events[0]["name"] == "boom"
        assert session.events[0]["attrs"] == {"stage": "fit"}


class TestSpans:
    def test_span_records_duration_histogram(self):
        with obs.observed() as session:
            with obs.span("work"):
                pass
        hist = session.metrics.histograms["work"]
        assert hist.count == 1
        assert hist.unit == "s"

    def test_untraced_session_records_no_spans(self):
        with obs.observed(trace=False) as session:
            with obs.span("work"):
                pass
        assert session.tracer is None

    def test_traced_nesting_and_attrs(self):
        with obs.observed(trace=True) as session:
            with obs.span("outer", a=1) as outer:
                with obs.span("inner"):
                    pass
                outer.set(b=2)
        spans = {s.name: s for s in session.tracer.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].depth == 1
        assert spans["outer"].attrs == {"a": 1, "b": 2}
        assert spans["outer"].duration >= spans["inner"].duration >= 0

    def test_exception_marks_span_error(self):
        with obs.observed(trace=True) as session:
            with pytest.raises(RuntimeError):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        (span,) = session.tracer.spans
        assert span.status == "error"
        assert span.end is not None


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with obs.observed(trace=True) as session:
            obs.incr("n", 2)
            with obs.span("phase"):
                obs.observe("v", 1.5)
            obs.event("done")
            count = session.export_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == count
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        types = {r["type"] for r in records}
        assert {"counter", "histogram", "span", "event"} <= types

    def test_export_via_facade(self, tmp_path):
        path = tmp_path / "m.jsonl"
        obs.install()
        obs.incr("x")
        assert obs.export_jsonl(path) > 0
        obs.uninstall()
        assert path.exists()

    def test_load_records_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"type": "counter", "name": "ok", "value": 1}\n'
            "{torn-write\n"
            "\n"
            '["not-a-dict"]\n'
        )
        with pytest.warns(JournalWarning) as caught:
            records = obs.load_records(path)
        assert len(records) == 1
        assert records[0]["name"] == "ok"
        # One warning per skipped line: the torn one and the non-object.
        assert [str(w.message).split(": ")[1] for w in caught] == [
            "skipping unparseable line (torn write?)",
            "skipping non-object line (expected an object, got list)",
        ]

    def test_load_records_missing_export_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            obs.load_records(tmp_path / "missing.jsonl")


class TestProfileRendering:
    def _export(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with obs.observed(trace=True) as session:
            obs.incr("discord.drag_calls", 12)
            obs.gauge("trainer.lr", 0.001)
            obs.observe("discord.drag.candidates", 40)
            with obs.span("eval.unit", dataset="d0"):
                with obs.span("trainer.train_encoder"):
                    pass
            obs.event("trainer.rollback", epoch=3)
            session.export_jsonl(path)
        return path

    def test_render_contains_all_sections(self, tmp_path):
        text = obs.render_profile(obs.load_records(self._export(tmp_path)))
        assert "timed sections" in text
        assert "counters & gauges" in text
        assert "value histograms" in text
        assert "trace" in text
        assert "events" in text
        assert "discord.drag_calls" in text
        assert "trainer.train_encoder" in text
        assert "trainer.rollback" in text

    def test_trace_tree_is_indented(self, tmp_path):
        text = obs.render_profile(obs.load_records(self._export(tmp_path)))
        assert "\n  trainer.train_encoder" in text

    def test_empty_records(self):
        assert "no records" in obs.render_profile([])

    def test_top_limits_rows(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with obs.observed() as session:
            for i in range(30):
                obs.incr(f"counter.{i:02d}")
            session.export_jsonl(path)
        text = obs.render_profile(obs.load_records(path), top=5)
        rows = [line for line in text.splitlines() if line.startswith("counter.")]
        assert len(rows) == 5
